"""The relativistic process: tempered potentials and hitting probabilities.

The massive process hits spheres with probability one in the plane, with
a potential-ratio probability in d >= 3, and has a Bessel-K hitting
kernel on the hyperplane once killed at its mass rate.  The mass -> 0
limits recover the plain stable formulas.
"""

import numpy as np
from scipy import integrate   # the quadrature cross-check only: scipy comes with the test extra

from stablepot import StableParams, halfspace, relativistic
from stablepot.relativistic import RelativisticParams

p3 = StableParams(3, 1.5)
p2 = StableParams(2, 1.5)

print("== subordinator potential density q_m ==")
rp = RelativisticParams(p3, 1.0)
for x in (0.25, 1.0, 4.0):
    q = relativistic.subordinator_potential(rp, x)
    q0 = x ** (p3.alpha / 2 - 1) / 0.9027452929509336   # Gamma(3/4)
    print(f"q_1({x}) = {q:.6f}   (mass-0 value {q0:.6f})")
print()

print("== hitting the unit sphere, d = 3, m = 1 ==")
for rho in (1.0, 1.5, 2.0, 4.0, 8.0):
    v = relativistic.hitting_probability_sphere(rp, 1.0, rho)
    print(f"Phi_m(|x| = {rho}) = {v:.6f}")
print("d = 2:", relativistic.hitting_probability_sphere(
    RelativisticParams(p2, 1.0), 1.0, 5.0), " (recurrent radial part)")
print()

print("== discounted hitting functional, decreasing in the rate ==")
for lam in (0.05, 0.2, 0.5, 0.9):
    v = relativistic.hitting_laplace_transform(rp, 1.0, 2.0, lam)
    print(f"lam = {lam}: {v:.6f}")
print()

print("== killed-process hyperplane kernel ==")
x = np.array([0.0, 1.0])
rp2 = RelativisticParams(p2, 1.0)
mass, _ = integrate.quad(lambda y: relativistic.poisson_kernel_halfspace(
    rp2, x, np.array([y])), -np.inf, np.inf, limit=200)
print(f"total mass from e_2 at m = 1: {mass:.6f}  (< 1: the kill can fire first)")
rp_small = RelativisticParams(p2, 1e-10)
for yb in (0.0, 0.7, 2.3):
    ratio = relativistic.poisson_kernel_halfspace(rp_small, x, np.array([yb])) \
        / halfspace.poisson_kernel(p2, x, np.array([yb]))
    print(f"m -> 0 kernel ratio at ybar = {yb}: {ratio:.8f}")
