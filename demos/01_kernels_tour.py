"""Tour of the closed-form kernels.

Walks through the hitting probability of the unit sphere, the Poisson,
Green and Martin kernels on both the sphere complement and the
hyperplane complement, and the identities tying them together.  Writes a
phi profile to phi_profile.csv for plotting.
"""

import numpy as np

from stablepot import INFINITY, StableParams, halfspace, sphere
from stablepot.report import write_csv

p = StableParams(d=2, alpha=1.5)
kc = sphere.constants(p)

print("== hitting probability of the unit circle (d=2, alpha=1.5) ==")
print(f"Phi(0)        = {kc.phi_at_origin:.12f}   (= C2/Gamma(d/2) < 1: the")
print("                process may drift away without ever touching the circle)")
for r in (0.5, 0.9, 0.999, 1.0, 1.001, 1.1, 2.0, 10.0, 1e4):
    print(f"phi({r:8g})  = {sphere.phi(p, r):.12f}")
print()

print("== Poisson kernel of the sphere complement ==")
x = np.array([0.5, 0.0])
z = np.array([0.0, 1.0])
print(f"P(x, z) at x={x}, z={z}: {sphere.poisson_kernel(p, x, z):.10f}")
print("exchange symmetry P(r y, z) = P(r z, y):")
y = np.array([0.6, 0.8])
for r in (0.3, 2.5):
    a = sphere.poisson_kernel(p, r * y, z)
    b = sphere.poisson_kernel(p, r * z, y)
    print(f"  r={r}: {a:.12f} vs {b:.12f}")
print()

print("== Green function and Martin kernel ==")
print(f"G(x, y) sym:  {sphere.green_function(p, [0.4, 0.1], [1.5, -0.3]):.10f}"
      f" = {sphere.green_function(p, [1.5, -0.3], [0.4, 0.1]):.10f}")
print(f"M(0, z)  = {sphere.martin_kernel(p, np.zeros(2), z)}   (normalized at 0)")
print(f"M(x, oo) = {sphere.martin_kernel(p, x, INFINITY):.10f}"
      "   (the complement profile (1-Phi)/(1-Phi(0)))")
ratios = []
for k in (2, 3, 4):
    r = 1.0 - 10.0 ** -k
    ratios.append(sphere.green_function(p, x, r * z)
                  / sphere.green_function(p, np.zeros(2), r * z))
print(f"G-ratio limit toward z: {ratios} -> M(x,z) = "
      f"{sphere.martin_kernel(p, x, z):.6f}")
print()

print("== hyperplane complement ==")
xh = np.array([0.0, 1.0])
print(f"P_H(e_2, 0)       = {halfspace.poisson_kernel(p, xh, np.zeros(1)):.10f}"
      f"  (= C3 = {kc.c3:.10f})")
print(f"M_H((0,2), oo)    = {halfspace.martin_kernel(p, [0.0, 2.0], INFINITY):.10f}"
      "  (= |x_d|^(alpha-1) = 2^0.5)")
gh = halfspace.green_function(p, [0.0, 1.0], [1.0, -1.0])
print(f"G_H across plane  = {gh:.10f}  (finite: the process jumps over)")

print()
print("== the shifted inversion ties the two geometries together ==")
e2 = np.array([0.0, 1.0])
xa, ya = np.array([0.3, 0.8]), np.array([-1.2, 0.4])
lhs = halfspace.green_function(p, xa, ya)
pref = 2.0 ** (p.d - p.alpha) * np.linalg.norm(xa + e2) ** (p.alpha - p.d) \
    * np.linalg.norm(ya + e2) ** (p.alpha - p.d)
rhs = pref * sphere.green_function(p, halfspace.invert_t_tilde(xa),
                                   halfspace.invert_t_tilde(ya))
print(f"G_H(x, y) = {lhs:.14f}")
print(f"transported G_D  = {rhs:.14f}   (rel diff {abs(lhs-rhs)/lhs:.1e})")

rs = np.linspace(0.01, 3.0, 300)
write_csv("phi_profile.csv", {"curve": "phi", "d": p.d, "alpha": p.alpha},
          np.column_stack([rs, sphere.phi(p, rs)]), ["r", "phi"])
print()
print("wrote phi_profile.csv (300 rows)")
