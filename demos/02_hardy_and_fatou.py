"""Hardy norms and boundary limits.

Builds harmonic functions from boundary data, compares slice-supremum
norms with the closed-form exit-moment norms, shows the norm sandwich,
walks a nontangential cone to the boundary, and exhibits the
counterexample gallery of functions outside every Hardy space.
"""

import numpy as np

from stablepot import StableParams, analysis, sphere
from stablepot.analysis import (HALFSPACE, SPHERE, BoundaryFunction,
                                DiscreteMeasure, HarmonicRepresentation)

p = StableParams(2, 1.5)
kc = sphere.constants(p)
phi0 = kc.phi_at_origin

print("== slice norms of the two basic profiles ==")
grid = analysis.sphere_quadrature(p, 64)
phi_fun = lambda pts: sphere.phi(p, np.linalg.norm(np.atleast_2d(pts), axis=1))
est = analysis.hardy_norm(p, SPHERE, phi_fun, 1.0, grid=grid)
print(f"||P[1]||_h1 schedule sup = {est.value:.6f} at r = {est.sup_at:.6g} "
      f"(exact value 1)")
comp_fun = lambda pts: sphere.phi_complement(p, np.linalg.norm(np.atleast_2d(pts), axis=1))
est = analysis.hardy_norm(p, SPHERE, comp_fun, 1.0, grid=grid)
print(f"||1-Phi||_h1 schedule sup = {est.value:.6f} at r = {est.sup_at:.6g}")
print()

print("== exit-moment norms have closed forms ==")
mu = DiscreteMeasure(np.array([[1.0, 0.0], [-1.0, 0.0]]), [1.2, -0.8])
rep = HarmonicRepresentation(SPHERE, measure=mu, constant=0.5)
print(f"sphere, total variation 2, c = 0.5:")
print(f"  Phi(0)||mu|| + |c|(1-Phi(0)) = {analysis.prob_hardy_norm(p, rep, 1.0):.10f}")
mu_h = DiscreteMeasure(np.zeros((1, 1)), [1.0])
rep_h = HarmonicRepresentation(HALFSPACE, measure=mu_h, constant=3.0,
                               flavor="martin")
print(f"halfspace, ||mu|| = 1, c = 3:  ||u|| = "
      f"{analysis.prob_hardy_norm(p, rep_h, 1.0):.1f}  (= ||mu|| + |c|)")
print()

print("== sandwich between the two norm families ==")
f = BoundaryFunction(lambda pts: 1.0 + 0.5 * pts[:, 0])
rep_f = HarmonicRepresentation(SPHERE, density=f, constant=0.5)
hn = analysis.hardy_norm(p, SPHERE, rep_f, 2.0, grid=grid,
                         schedule=analysis.default_schedule(SPHERE, 16))
pn = analysis.prob_hardy_norm(p, rep_f, 2.0)
lo = min(phi0, 1.0 - phi0)
print(f"{lo:.4f} x {hn.value:.6f} <= {pn:.6f} <= {hn.value:.6f}")
print()

print("== nontangential approach to the boundary ==")
rng = np.random.default_rng(0)
probe = analysis.fatou_probe(p, rep_f, np.array([0.6, 0.8]), beta=1.0,
                             depth=16, rng=rng)
print(f"target f(y) = {probe.target:.6f}; deviations at depth 1..16 "
      "(worst of both sides):")
print("  " + " ".join(f"{d:.1e}" for d in probe.deviations.max(axis=1)))
print()

print("== the counterexample gallery ==")
lin = lambda pts: np.atleast_2d(pts)[:, 0]
est = analysis.hardy_norm(p, HALFSPACE, lin, 1.0,
                          schedule=analysis.default_schedule(HALFSPACE, 10))
print(f"u(x) = x_1 on the halfspace: diverges = {est.diverges} "
      "(every slice integral is infinite)")
a = p.alpha
with np.errstate(all="ignore"):
    _, div, inc = analysis.omega_integral_probe(
        p, lambda pts: np.abs(pts[:, 0]) * np.sum(pts * pts, axis=1)
        ** ((a - 4.0) / 2.0))
print(f"Kelvin image x_1|x|^(alpha-4): reference-measure integral diverges = {div}")
e2 = np.array([0.0, 1.0])
kt = lambda pts: (2.0 ** ((4.0 - a) / 2.0) * np.atleast_2d(pts)[:, 0]
                  * np.sum((np.atleast_2d(pts) + e2) ** 2, axis=1)
                  ** ((a - 4.0) / 2.0))
big = analysis.sphere_quadrature(p, 65536)
est = analysis.hardy_norm(p, SPHERE, kt, 1.0, grid=big,
                          schedule=analysis.default_schedule(SPHERE, 12))
print(f"shifted Kelvin image on the sphere complement: diverges = {est.diverges}; "
      "slice norms toward the circle:")
near = sorted((s, v) for s, v in est.slices if 0 < s < 1)[-5:]
print("  " + " ".join(f"(r={s:.6f}: {v:.2f})" for s, v in near))
