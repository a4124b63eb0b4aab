"""Acceptance criteria, one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS lines as
they are produced.  Tolerances are pinned here and nowhere else.
"""

import hashlib
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.special as sps
from scipy import integrate

from stablepot import analysis, halfspace, relativistic, sphere
from stablepot.analysis import (HALFSPACE, SPHERE, BoundaryFunction,
                                DiscreteMeasure, HarmonicRepresentation)
from stablepot.core import StableParams, basis_last
from stablepot.errors import DivergenceError
from stablepot.montecarlo import (RngStream, WalkConfig, ks_test,
                                  sample_ball_exit_center,
                                  sample_halfplane_hit, walk_on_balls_hitting)
from stablepot.relativistic import RelativisticParams
from stablepot.specfun import (bessel_i_scaled, bessel_k, gauss_2f1, legendre_f1,
                               log_mittag_leffler, regularized_beta_cdf)

P2 = StableParams(2, 1.5)


def report(num, label, detail=""):
    print(f"[criterion {num:02d}] PASS  {label}" + (f"  ({detail})" if detail else ""))


def test_criterion_01_halfplane_normalization():
    t0 = time.time()
    rng = RngStream(1001, 0).generator()
    worst = 0.0
    for d in (2, 3):
        for alpha in (1.2, 1.5, 1.8):
            p = StableParams(d, alpha)
            for _ in range(20):
                xb = rng.uniform(-2.0, 2.0, d - 1)
                xd = rng.uniform(0.15, 2.0) * rng.choice([-1.0, 1.0])
                grid = analysis.hyperplane_quadrature(
                    p, 241 if d == 2 else 361, d + alpha - 2.0,
                    center=xb, scale=abs(xd))
                x = np.concatenate([xb, [xd]])
                mass = grid.integrate(halfspace.poisson_kernel(p, x, grid.nodes))
                worst = max(worst, abs(mass - 1.0))
    elapsed = time.time() - t0
    assert worst < 1e-6
    assert elapsed < 10.0
    report(1, "hyperplane hitting density integrates to 1",
           f"worst |mass-1| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_phi_equals_poisson_integral():
    rng = RngStream(1002, 0).generator()
    worst = 0.0
    for d in (2, 3):
        p = StableParams(d, 1.5)
        grid = analysis.sphere_quadrature(p, 1024 if d == 2 else 96)
        for inside in (True, False):
            for _ in range(20):
                r = rng.uniform(0.05, 0.9) if inside else rng.uniform(1.1, 3.0)
                x = rng.standard_normal(d)
                x *= r / np.linalg.norm(x)
                mass = grid.integrate(sphere.poisson_kernel(p, x, grid.nodes))
                worst = max(worst, abs(mass - sphere.hitting_probability(p, x)))
    assert worst < 1e-6
    report(2, "sphere hitting probability equals its Poisson integral",
           f"worst deviation = {worst:.2e}")


def test_criterion_03_kelvin_green_relation():
    rng = RngStream(1003, 0).generator()
    worst = 0.0
    for d, alpha in ((2, 1.5), (3, 1.3)):
        p = StableParams(d, alpha)
        e_d = basis_last(d)
        done = 0
        while done < 100:
            x = rng.uniform(-2.0, 2.0, d)
            y = rng.uniform(-2.0, 2.0, d)
            if abs(x[-1]) < 0.05 or abs(y[-1]) < 0.05:
                continue
            if np.linalg.norm(x - y) < 0.05 or np.linalg.norm(x + e_d) < 0.2 \
                    or np.linalg.norm(y + e_d) < 0.2:
                continue
            done += 1
            lhs = halfspace.green_function(p, x, y)
            pref = (2.0 ** (d - alpha)
                    * np.linalg.norm(x + e_d) ** (alpha - d)
                    * np.linalg.norm(y + e_d) ** (alpha - d))
            rhs = pref * sphere.green_function(
                p, halfspace.invert_t_tilde(x), halfspace.invert_t_tilde(y))
            worst = max(worst, abs(lhs - rhs) / abs(lhs))
    assert worst < 1e-9
    # prefactor resolution: the per-argument weight is 2^((d-alpha)/2)
    # (involutive); its square 2^(d-alpha) is the two-point Green constant
    u = lambda z: float(z[0]) * math.exp(-float(np.dot(z, z)))
    x0 = np.array([0.4, 0.7])
    twice = halfspace.kelvin("K_TILDE_ALPHA", P2,
                             lambda z: halfspace.kelvin("K_TILDE_ALPHA", P2, u, z),
                             x0)
    assert twice == pytest.approx(u(x0), rel=1e-12, abs=0)
    report(3, "Green functions agree through the shifted Kelvin route",
           f"worst rel err = {worst:.2e}; per-argument weight 2^((d-a)/2), "
           "squared constant 2^(d-a)")


def test_criterion_04_martin_limits():
    worst_final = 0.0
    for d in (2, 3):
        p = StableParams(d, 1.5)
        x = np.zeros(d)
        x[0] = 0.4
        z = basis_last(d)
        target = sphere.martin_kernel(p, x, z)
        errs = []
        for k in range(2, 6):
            r = 1.0 - 10.0 ** -k
            ratio = sphere.green_function(p, x, r * z) / \
                sphere.green_function(p, np.zeros(d), r * z)
            errs.append(abs(ratio - target))
        assert errs[2] < 1e-2          # r = 1 - 1e-4
        assert all(b < a for a, b in zip(errs, errs[1:]))
        worst_final = max(worst_final, errs[2])
        # hyperplane side
        xh = np.zeros(d)
        xh[0], xh[-1] = 0.5, 1.3
        zb = np.full(d - 1, -0.3)
        targeth = halfspace.martin_kernel(p, xh, zb)
        errs = []
        for k in range(2, 6):
            y = np.concatenate([zb, [10.0 ** -k]])
            ratio = halfspace.green_function(p, xh, y) / \
                halfspace.green_function(p, basis_last(d), y)
            errs.append(abs(ratio - targeth))
        assert errs[2] < 1e-2
        assert all(b < a for a, b in zip(errs, errs[1:]))
        worst_final = max(worst_final, errs[2])
    report(4, "Martin kernels arise as Green-function boundary limits",
           f"worst error at 1e-4 distance = {worst_final:.2e}")


def test_criterion_05_phi_dual_path_and_limits():
    # the golden-band and t = 1 routes, inside the band up to both of its
    # edges r^2 - 1 = golden and -1/golden, where phi takes the band's route
    golden = (math.sqrt(5.0) + 1.0) / 2.0
    deltas = (1.2, 1.5, 1.6, 1.61, golden, -0.55, -0.6, -0.61, -0.615, -1.0 / golden)
    worst = 0.0
    for d in (2, 3):
        for alpha in (1.2, 1.5, 1.8):
            p = StableParams(d, alpha)
            for delta in deltas:
                band = sphere._phi_golden(p, delta)[0]
                far = sphere._phi_t1(p, delta)
                worst = max(worst, abs(band - far) / abs(far))
    assert worst < 1e-8
    assert sphere.phi(P2, 1.0 - 1e-8) > 0.999
    assert sphere.phi(P2, 1e6) < 1e-2
    report(5, "dual-route hitting probability agrees across the band edges",
           f"worst rel = {worst:.2e}; phi(1-1e-8) = "
           f"{sphere.phi(P2, 1.0 - 1e-8):.6f}, phi(1e6) = {sphere.phi(P2, 1e6):.2e}")


def test_criterion_06_halfplane_sampler_ks():
    t0 = time.time()
    n = 100_000
    a = P2.alpha
    hits, t0_draws = sample_halfplane_hit(P2, np.array([0.0, 1.0]),
                                          RngStream(2006, 0).generator(), n,
                                          return_time=True)

    def cdf(y):
        # the complement 1/(1+y^2) is formed first so the incomplete-beta
        # argument keeps full precision for huge draws (monotone to the end)
        y = np.atleast_1d(np.asarray(y, dtype=float))
        wc = 1.0 / (1.0 + y * y)
        half = np.array([1.0 - regularized_beta_cdf((a - 1.0) / 2.0, 0.5, float(v))
                         for v in wc])
        return 0.5 + 0.5 * np.sign(y) * half

    # oracle first: the closed CDF matches direct quadrature of the density
    kc = sphere.constants(P2)
    for y0 in (0.5, 2.0, 8.0):
        quad_val, _ = integrate.quad(
            lambda s: kc.c3 / (1.0 + s * s) ** (a / 2.0), 0.0, y0, limit=200)
        assert abs((cdf(y0)[0] - 0.5) - quad_val) < 1e-10
    res_pos = ks_test(hits[:, 0], cdf)
    assert res_pos.passed[0.01]
    shape = (a - 1.0) / 2.0
    res_t = ks_test(t0_draws, lambda t: sps.gammaincc(shape, 0.5 / np.asarray(t)))
    assert res_t.statistic < 1.63 / math.sqrt(n)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(6, "exact hyperplane sampler matches the hitting law",
           f"KS = {res_pos.statistic * math.sqrt(n):.3f}/sqrt(n), "
           f"T0 KS = {res_t.statistic * math.sqrt(n):.3f}/sqrt(n), {elapsed:.1f}s")


def test_criterion_07_ball_exit_sampler():
    a2 = P2.alpha / 2.0
    area = 2.0 * math.pi ** (P2.d / 2.0) / math.gamma(P2.d / 2.0)
    c_rad = sphere.ball_constant(P2) * area
    worst = 0.0
    for rho in (1.05, 1.2, 1.7, 3.0, 10.0):
        quad_val, _ = integrate.quad(
            lambda w: 0.5 * c_rad * w ** (a2 - 1.0) * (1.0 - w) ** (-a2),
            0.0, 1.0 / rho ** 2, points=[0.0], limit=200)
        worst = max(worst, abs(quad_val - regularized_beta_cdf(
            a2, 1.0 - a2, 1.0 / rho ** 2)))
    assert worst < 1e-8    # the oracle confirms the radial-law reduction
    n = 100_000
    draws = sample_ball_exit_center(P2, RngStream(2007, 0).generator(), n)
    w = np.clip(1.0 / np.linalg.norm(draws, axis=1) ** 2, 0.0, 1.0)
    res = ks_test(w, lambda v: np.array(
        [regularized_beta_cdf(a2, 1.0 - a2, float(t)) for t in np.atleast_1d(v)]))
    assert res.passed[0.01]
    report(7, "ball-exit radial law matches its reduced form",
           f"oracle gap = {worst:.2e}, KS = {res.statistic * math.sqrt(n):.3f}/sqrt(n)")


def test_criterion_08_walk_on_balls():
    t0 = time.time()
    res = walk_on_balls_hitting(P2, np.zeros(2), WalkConfig(), 10_000,
                                RngStream(2008, 0).generator())
    target = sphere.constants(P2).phi_at_origin
    err = abs(res.estimate - target)
    assert err <= 3.0 * res.stderr + res.bias_budget
    assert res.bias_budget < 0.01
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(8, "walk-on-balls reproduces the hitting probability at the center",
           f"err = {err:.4f} vs 3se+bias = {3 * res.stderr + res.bias_budget:.4f}, "
           f"bias = {res.bias_budget:.4f}, {elapsed:.1f}s")


def test_criterion_09_hardy_identities():
    kc = sphere.constants(P2)
    phi0 = kc.phi_at_origin
    grid = analysis.sphere_quadrature(P2, 64)
    phi_fun = lambda pts: np.array(
        [sphere.phi(P2, float(np.linalg.norm(q))) for q in np.atleast_2d(pts)])
    comp_fun = lambda pts: np.array(
        [sphere.phi_complement(P2, float(np.linalg.norm(q)))
         for q in np.atleast_2d(pts)])
    for pexp in (1.0, 2.0, math.inf):
        for fun in (phi_fun, comp_fun):
            est = analysis.hardy_norm(P2, SPHERE, fun, pexp, grid=grid)
            assert abs(est.value - 1.0) < 1e-3
    mu = DiscreteMeasure(np.array([[1.0, 0.0], [-1.0, 0.0]]), [1.2, -0.8])
    v = analysis.prob_hardy_norm(P2, HarmonicRepresentation(SPHERE, measure=mu),
                                 1.0)
    assert v == pytest.approx(2.0 * phi0, rel=1e-14, abs=0)
    mu_h = DiscreteMeasure(np.zeros((1, 1)), [1.0])
    v = analysis.prob_hardy_norm(
        P2, HarmonicRepresentation(HALFSPACE, measure=mu_h, constant=3.0,
                                   flavor="martin"), 1.0)
    assert v == pytest.approx(4.0, rel=1e-15, abs=0)
    f = BoundaryFunction(lambda pts: 1.0 + 0.5 * pts[:, 0])
    rep_f = HarmonicRepresentation(SPHERE, density=f, constant=0.5)
    for pexp in (1.0, 2.0):
        closed = analysis.prob_hardy_norm(P2, rep_f, pexp)
        base = analysis.majorant(P2, rep_f, pexp, np.zeros(2)) ** (1.0 / pexp)
        assert abs(base - closed) < 1e-6
    rng = RngStream(2009, 0).generator()
    lo = min(phi0, 1.0 - phi0)
    for _ in range(5):
        c = rng.uniform(-1.0, 1.0)
        a1, a2 = rng.uniform(0.3, 1.0, 2)
        fr = BoundaryFunction(lambda pts, a1=a1, a2=a2: a1 + a2 * pts[:, 0])
        rr = HarmonicRepresentation(SPHERE, density=fr, constant=c)
        hn = analysis.hardy_norm(P2, SPHERE, rr, 2.0, grid=grid,
                                 schedule=analysis.default_schedule(SPHERE, 16))
        pn = analysis.prob_hardy_norm(P2, rr, 2.0)
        assert lo * hn.value <= pn * (1.0 + 1e-6)
        assert pn <= hn.value * (1.0 + 5e-3)
    report(9, "Hardy-norm identities and the norm sandwich hold")


def test_criterion_10_divergence_gallery():
    lin = lambda pts: np.atleast_2d(pts)[:, 0]
    est = analysis.hardy_norm(P2, HALFSPACE, lin, 1.0,
                              schedule=analysis.default_schedule(HALFSPACE, 10))
    assert est.diverges
    a = P2.alpha
    with np.errstate(all="ignore"):
        _, div_ka, _ = analysis.omega_integral_probe(
            P2, lambda pts: np.abs(pts[:, 0])
            * np.sum(pts * pts, axis=1) ** ((a - 4.0) / 2.0))
    assert div_ka
    e2 = basis_last(2)
    kt = lambda pts: (2.0 ** ((4.0 - a) / 2.0) * np.atleast_2d(pts)[:, 0]
                      * np.sum((np.atleast_2d(pts) + e2) ** 2, axis=1)
                      ** ((a - 4.0) / 2.0))
    grid = analysis.sphere_quadrature(P2, 65536)
    est_kt = analysis.hardy_norm(P2, SPHERE, kt, 1.0, grid=grid,
                                 schedule=analysis.default_schedule(SPHERE, 12))
    assert est_kt.diverges and est_kt.increasing_at_boundary
    report(10, "counterexample gallery flagged as divergent",
           "linear profile, its Kelvin image, and the shifted image")


def test_criterion_11_fractional_laplacian():
    rng = RngStream(2011, 0).generator()
    a = P2.alpha
    for _ in range(5):
        x = rng.uniform(-0.8, 0.8, 2)
        res = analysis.fractional_laplacian(P2, lambda pts: pts[:, 0], x,
                                            growth_exponent=1.0)
        assert abs(res.value) < 1e-3 * res.local_scale
        x2 = rng.uniform(0.3, 1.0, 2)
        res = analysis.fractional_laplacian(
            P2, lambda pts: np.abs(pts[:, 1]) ** (a - 1.0), x2,
            growth_exponent=a - 1.0)
        assert abs(res.value) < 1e-3 * res.local_scale
    gb = analysis.fractional_laplacian(
        P2, lambda pts: np.exp(-np.sum(pts ** 2, axis=1)), np.zeros(2),
        growth_exponent=0.0)
    assert gb.value < 0.0
    report(11, "principal-value fractional Laplacian annihilates harmonic profiles",
           f"Gaussian bump value = {gb.value:.4f} < 0")


def test_criterion_12_fatou_probes():
    rng = RngStream(2012, 0).generator()
    f = BoundaryFunction(lambda pts: 1.0 + 0.5 * pts[:, 0])
    rep_s = HarmonicRepresentation(SPHERE, density=f, constant=0.5)
    g = BoundaryFunction(lambda pts: np.exp(-pts[:, 0] ** 2))
    rep_h = HarmonicRepresentation(HALFSPACE, density=g, flavor="martin")
    worst = 0.0
    for beta in (0.5, 4.0):
        probe = analysis.fatou_probe(P2, rep_s, np.array([0.6, 0.8]), beta,
                                     depth=20, rng=rng)
        worst = max(worst, probe.running_max_tail[-1])
        probe = analysis.fatou_probe(P2, rep_h, np.array([0.3]), beta,
                                     depth=20, rng=rng)
        worst = max(worst, probe.running_max_tail[-1])
    assert worst < 0.01
    report(12, "nontangential limits reached on both surfaces",
           f"worst depth-20 running max = {worst:.2e}")


def test_criterion_13_relativistic():
    rp2 = RelativisticParams(P2, 1.0)
    assert relativistic.hitting_probability_sphere(rp2, 1.0, 5.0) == 1.0
    rp3 = RelativisticParams(StableParams(3, 1.5), 1.0)
    assert abs(relativistic.hitting_probability_sphere(rp3, 1.0, 1.0) - 1.0) < 1e-6
    with pytest.raises(DivergenceError):
        relativistic.lambda_potential(
            RelativisticParams(StableParams(3, 0.9), 1.0, 0.5), 1.0, 1.0)
    with pytest.raises(DivergenceError):
        relativistic.lambda_potential(rp2, 2.0, 1.0)
    rp_small = RelativisticParams(P2, 1e-10)
    x = np.array([0.0, 1.0])
    yb = np.array([0.7])
    ratio = relativistic.poisson_kernel_halfspace(rp_small, x, yb) / \
        halfspace.poisson_kernel(P2, x, yb)
    assert abs(ratio - 1.0) < 1e-3
    mass, _ = integrate.quad(
        lambda y: relativistic.poisson_kernel_halfspace(rp2, x, np.array([y])),
        -np.inf, np.inf, limit=200)
    assert 0.0 < mass < 1.0
    report(13, "relativistic hitting probabilities and killed kernel behave",
           f"small-mass ratio = {ratio:.6f}, killed mass = {mass:.4f} < 1")


def test_criterion_14_special_function_units():
    for t in np.linspace(0.0, 20.0, 81):
        assert abs(math.exp(log_mittag_leffler(1.0, 1.0, t)) - math.exp(t)) \
            <= 1e-12 * math.exp(t)
    want_i = math.sinh(2.0) / math.sqrt(math.pi)
    assert abs(bessel_i_scaled(0.5, 2.0) * math.exp(2.0) - want_i) <= 1e-10 * want_i
    want_k = math.sqrt(math.pi / 2.0) * math.exp(-1.0)
    assert abs(bessel_k(0.5, 1.0) - want_k) <= 1e-10 * want_k
    for a in (0.25, 1.0, 2.5):
        for s in (-0.7, 0.2, 0.9):
            want = (1.0 - s) ** (-a)
            assert abs(gauss_2f1(a, 0.8, 0.8, s) - want) <= 1e-12 * abs(want)
    rng = RngStream(2014, 0).generator()
    worst = 0.0
    for d, alpha in ((2, 1.5), (3, 1.2), (3, 1.8)):
        p = StableParams(d, alpha)
        kc = sphere.constants(p)
        for _ in range(10):
            v = rng.uniform(1.0001, 10.0)
            t = (v * v + 1.0) / (v * v - 1.0)
            lead = kc.c2 * (v * v - 1.0) ** (alpha / 2.0 - 1.0) \
                * v ** (1.0 - d / 2.0) * legendre_f1(d, alpha, t)
            worst = max(worst, abs(lead - v ** (alpha - d)) / v ** (alpha - d))
    assert worst < 1e-10
    report(14, "special-function unit identities hold",
           f"Legendre reduction worst rel = {worst:.2e}")


def test_criterion_15_determinism(tmp_path):
    cmd = [sys.executable, "-m", "stablepot.cli", "verify", "all", "--seed", "42"]
    out1 = subprocess.run(cmd, capture_output=True, check=False)
    out2 = subprocess.run(cmd, capture_output=True, check=False)
    assert out1.returncode == 0 and out2.returncode == 0
    h1 = hashlib.sha256(out1.stdout).hexdigest()
    h2 = hashlib.sha256(out2.stdout).hexdigest()
    assert h1 == h2
    rep = json.loads(out1.stdout)
    assert rep["summary"]["fail"] == 0
    f1, f2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    for f in (f1, f2):
        subprocess.run([sys.executable, "-m", "stablepot.cli", "sample",
                        "halfplane-hit", "--x", "0,1", "--n", "5000",
                        "--seed", "7", "--out", str(f)],
                       capture_output=True, check=True)
    assert hashlib.sha256(f1.read_bytes()).digest() == \
        hashlib.sha256(f2.read_bytes()).digest()
    report(15, "verification reports and sampler files reproduce byte-for-byte",
           f"report sha256 = {h1[:16]}...")
