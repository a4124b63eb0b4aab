"""Exact hitting samplers validated against the closed forms.

Draws ball exits and hyperplane hits from the one-shot constructions,
checks their laws with Kolmogorov-Smirnov tests, and runs the
walk-on-balls chain whose hit frequency reproduces the sphere hitting
probability.
"""

import math

import numpy as np

from stablepot import StableParams, sphere
from stablepot.montecarlo import (RngStream, WalkConfig, ks_test,
                                  sample_ball_exit_center,
                                  sample_halfplane_hit, walk_on_balls_hitting)
from stablepot.specfun import regularized_beta_cdf

p = StableParams(2, 1.5)
n = 50_000

print("== ball exit from the center ==")
draws = sample_ball_exit_center(p, RngStream(7, 0).generator(), n)
radii = np.linalg.norm(draws, axis=1)
print(f"{n} draws, all outside the ball: {bool(np.all(radii > 1))}")
print(f"median exit radius = {np.median(radii):.4f}, "
      f"P(R > 2) = {np.mean(radii > 2):.4f} "
      f"(exact {regularized_beta_cdf(p.alpha/2, 1-p.alpha/2, 0.25):.4f})")
a2 = p.alpha / 2.0
res = ks_test(np.clip(1.0 / radii ** 2, 0, 1),
              lambda v: regularized_beta_cdf(a2, 1 - a2, v))
print(f"KS vs the radial law: D*sqrt(n) = {res.statistic * math.sqrt(n):.3f} "
      f"(1% critical 1.628) -> pass = {res.passed[0.01]}")
print()

print("== hyperplane hit from (0, 1) ==")
hits, t0 = sample_halfplane_hit(p, np.array([0.0, 1.0]),
                                RngStream(8, 0).generator(), n,
                                return_time=True)
print(f"mean landing position = {hits[:, 0].mean():+.5f} (law is symmetric)")
print(f"median auxiliary hitting time = {np.median(t0):.4f}")
kc = sphere.constants(p)


def position_cdf(y):
    y = np.atleast_1d(np.asarray(y, dtype=float))
    wc = 1.0 / (1.0 + y * y)
    half = 1.0 - regularized_beta_cdf((p.alpha - 1) / 2, 0.5, wc)
    return 0.5 + 0.5 * np.sign(y) * half


res = ks_test(hits[:, 0], position_cdf)
print(f"KS vs the hitting density: D*sqrt(n) = "
      f"{res.statistic * math.sqrt(n):.3f} -> pass = {res.passed[0.01]}")
print()

print("== walk on balls ==")
for x0, label in ((np.zeros(2), "center"), (np.array([2.0, 0.0]), "|x| = 2")):
    res = walk_on_balls_hitting(p, x0, WalkConfig(), 10_000,
                                RngStream(9, 0).generator())
    exact = sphere.hitting_probability(p, x0)
    print(f"start at {label}: estimate = {res.estimate:.4f} +- {res.stderr:.4f} "
          f"(bias budget {res.bias_budget:.4f}), exact Phi = {exact:.4f}")
    print(f"  hits {res.hits}, escapes {res.escapes}, "
          f"inconclusive {res.inconclusive}")
