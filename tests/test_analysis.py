import hashlib
import math
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from stablepot import analysis, halfspace, sphere
from stablepot.analysis import (HALFSPACE, SPHERE, BoundaryFunction,
                                DiscreteMeasure, HarmonicRepresentation,
                                QuadratureGrid,
                                default_schedule, fatou_probe,
                                fractional_laplacian, halfspace_values,
                                hardy_norm, hardy_norms, hyperplane_quadrature,
                                majorant, omega_integral_probe,
                                prob_hardy_norm,
                                representation_value, sphere_quadrature,
                                sphere_values)
from stablepot.core import StableParams, basis_last
from stablepot.errors import (ConvergenceError, DomainError, IntegrabilityError,
                              RepresentationError)

P2 = StableParams(2, 1.5)
P3 = StableParams(3, 1.5)


class TestSphereQuadrature:
    @pytest.mark.parametrize("p,res", [(P2, 128), (P3, 32)])
    def test_weights_normalized(self, p, res):
        g = sphere_quadrature(p, res)
        assert float(np.sum(g.weights)) == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(np.linalg.norm(g.nodes, axis=1), 1.0, atol=1e-14)

    def test_odd_moment_vanishes(self):
        for p, res in ((P2, 128), (P3, 32)):
            g = sphere_quadrature(p, res)
            assert abs(g.integrate(g.nodes[:, 0])) < 1e-14

    def test_reproduces_hitting_probability(self):
        g = sphere_quadrature(P2, 256)
        x = np.array([0.5, 0.0])
        val = g.integrate(sphere.poisson_kernel(P2, x, g.nodes))
        assert val == pytest.approx(sphere.hitting_probability(P2, x), abs=1e-6)

    def test_unsupported_dimension(self):
        # every d takes the product rule; a grid past the node budget (64
        # nodes per level in d = 5: 33,554,432) is refused before it is built
        for d, res, count in ((5, 64, 33_554_432), (40, 8, 2 * 8 ** 39)):
            start = time.perf_counter()
            with pytest.raises(DomainError, match=f"{count} nodes in d={d}"):
                sphere_quadrature(StableParams(d, 1.5), res)
            assert time.perf_counter() - start < 0.5
        with pytest.raises(DomainError):
            sphere_quadrature(P2, 4)

    @pytest.mark.parametrize("a", [0.5, 1.0, 1.5, 2.0])
    def test_gauss_jacobi_against_a_40_digit_rule(self, a):
        # the rule of the weight (1 - t^2)^a, weights summing to 1, that lifts
        # the grids at d >= 4 and the rings at d >= 5.  The reference takes
        # Newton steps on the orthonormal recurrence at 40 digits from each
        # node, and the weight 1 / sum q_k^2 (the Christoffel function) there.
        # Over n = 1..64 the nodes are within 1e-16 and the weights within
        # 5.8e-14 (scipy's roots_jacobi: 1.7e-16 and 2.8e-12)
        for n in (1, 2, 5, 16, 33, 64):
            t, w = analysis._gauss_jacobi(n, a)
            assert np.array_equal(t, -t[::-1]) and np.array_equal(w, w[::-1])
            with mpmath.workdps(40):
                b = [mpmath.sqrt(k * (k + 2 * mpmath.mpf(a))
                                 / ((2 * k + 2 * a + 1) * (2 * k + 2 * a - 1))) for k in range(1, n)]
                for x, wx in zip(t.tolist(), w.tolist()):
                    ref = mpmath.mpf(x)
                    for _ in range(3):
                        q0, q1, dq0, dq1, total = 0, 1, 0, 0, 0
                        for b0, b1 in zip([0, *b], [*b, 1]):
                            total += q1 * q1
                            q0, q1, dq0, dq1 = q1, (ref * q1 - b0 * q0) / b1, dq1, \
                                (q1 + ref * dq1 - b0 * dq0) / b1
                        ref -= q1 / dq1
                    assert abs(x - ref) <= 2e-16, (n, x)
                    assert abs(wx * total - 1) <= 1e-13, (n, x)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_moments_in_every_dimension(self, d):
        # resolution 8 is exact to degree 7 (the circle's 8 nodes to degree
        # 7 as well): E[x_1^2 x_d^4] = 3 / (d (d+2) (d+4)), E[x_2^6] five times that
        g = sphere_quadrature(StableParams(d, 1.5), 8)
        assert len(g.nodes) == (8 if d == 2 else 2 * 8 ** (d - 1))
        np.testing.assert_allclose(np.linalg.norm(g.nodes, axis=1), 1.0, rtol=0, atol=1e-15)
        x, want = g.nodes, 3.0 / (d * (d + 2) * (d + 4))
        assert g.integrate(np.ones(len(x))) == pytest.approx(1.0, rel=0, abs=1e-15)
        assert abs(g.integrate(x[:, 0] * x[:, -1] ** 2)) < 1e-16
        assert g.integrate(x[:, 0] ** 2 * x[:, -1] ** 4) == pytest.approx(want, rel=0, abs=1e-16)
        assert g.integrate(x[:, 1] ** 6) == pytest.approx(5.0 * want, rel=0, abs=5e-16)

    # sha256 of nodes and weights, taken from the hand-written d = 2 and 3
    # rules and d <= 4 rings that the product rule replaced; the rings at 64
    # and 32 per level are hyperplane_quadrature's, those at 8 the density
    # rules' first ring, and the checks its turned 3-per-level check ring
    DIGESTS = {
        ("grid", 2, 16): "f194a921737dd998026d0e3fc643333e6be7ba8d575724d547895e4bb6e507b2",
        ("grid", 2, 512): "e61f99fccc0a968d61a42c99d035217002a1895a28eb8e42e95a6d79dd92fe21",
        ("grid", 2, 1024): "bc17830e668fdb16b595d89aee6e139ee1571728ef4568ec4a4640885f1540dd",
        ("grid", 3, 8): "b37ee963dcd661e1332b90c272208cc2a590df9ff7fb54a0497ec5b70d2e10bd",
        ("grid", 3, 24): "19d5e4c5211705026deb4d53ebf38483c93ca3cde9e5cfe9cd22d16daf9073e5",
        ("grid", 3, 64): "ac57041ac2f9cd44202fe412c57e64c7657ec393014ecd088909a4e35d4f18b8",
        ("grid", 3, 96): "6e4be49eda815494bb7825f9468e8c9c236dd48914a8ddbf1f3ff1ed0392055e",
        ("ring", 2, 8): "800d279e3e66a5a9cc5ebba21408f63ac39151ff609d827c475b775832a8891c",
        ("ring", 3, 64): "64954d8e92b40ca2b4a95744a883d00fd6c8647b88cce9e0eb43afbfe40580ab",
        ("ring", 4, 32): "3cfaf26cc500ed8faa42499b8b3c881a86fa2d04f400d813f8966222ad61fe30",
        ("ring", 3, 8): "2d48cec6e2620a459ce8bc99503f4c7f526a255a7a9e79b302fb05be8085cf0e",
        ("check", 3, 3): "4f4ac66edfa7e8ac5365e18401272ef47f121c9188562078156ca354e642fa00",
        ("ring", 4, 8): "b37ee963dcd661e1332b90c272208cc2a590df9ff7fb54a0497ec5b70d2e10bd",
        ("check", 4, 3): "09b1113df687da1eb9353719787163bcdba31c17d27952c9a3ab12eb257d0c02",
    }

    def test_grids_and_rings_keep_their_bits(self):
        for (kind, d, res), want in self.DIGESTS.items():
            p = StableParams(d, 1.5)
            if kind == "grid":
                g = sphere_quadrature(p, res)
                nodes, weights = g.nodes, g.weights
            else:
                turn = analysis._TURN if kind == "check" else 0.0
                nodes, weights = analysis._sphere_rule(d, d - 1, res, 1, turn)
            got = hashlib.sha256(nodes.tobytes() + weights.tobytes()).hexdigest()
            assert got == want, (kind, d, res)

    @staticmethod
    def _centers(d):
        c = np.random.default_rng(d).standard_normal(d)
        return c / np.linalg.norm(c), -basis_last(d)         # random, and the pole -e_d

    @pytest.mark.parametrize("d,res", [(2, 8), (2, 64), (3, 8), (3, 16), (4, 8), (5, 8)])
    @pytest.mark.parametrize("scale", [1.0, 2.0 ** -13, 2.0 ** -40])
    def test_pole_centred_rule_keeps_its_moments(self, d, res, scale):
        # normalized measure: total 1, E[(c . z)^2] = E[z_d^2] = 1/d about any
        # unit center, however small the scale; at d >= 4 too, where the
        # radial nodes grow with d and 1 / scale rather than lose digits
        p = StableParams(d, 1.5)
        for c in self._centers(d):
            g = sphere_quadrature(p, res, c, scale)
            z, w = g.nodes, g.weights
            np.testing.assert_allclose(np.linalg.norm(z, axis=1), 1.0, rtol=0, atol=1e-15)
            assert abs(np.sum(w) - 1.0) < 1e-13
            assert abs(w @ (z @ c) ** 2 - 1.0 / d) < 1e-13
            assert abs(w @ z[:, -1] ** 2 - 1.0 / d) < 1e-13

    def test_pole_centred_rule_refusals(self):
        p = StableParams(3, 1.5)
        e3 = basis_last(3)
        for center, scale, match in (
                (2.0 * e3, 0.5, "unit"), (np.array([0.0, 0.6, 0.79]), 0.5, "unit"),
                (np.array([0.0, 1.0]), 0.5, "length"), (np.array([np.nan, 0.0, 1.0]), 0.5, "unit"),
                (e3, 0.0, r"\(0, 1\]"), (e3, -0.5, r"\(0, 1\]"), (e3, 1.5, r"\(0, 1\]"),
                (e3, math.nan, r"\(0, 1\]"), (None, 0.5, "needs a center")):
            with pytest.raises(DomainError, match=match):
                sphere_quadrature(p, 8, center, scale)
        with pytest.raises(DomainError, match="resolution >= 8"):
            sphere_quadrature(p, 4, e3, 0.5)
        # past the node budget: 2 * 40^3 ring nodes times 40 radial ones
        with pytest.raises(DomainError, match="5120000 nodes in d=5"):
            sphere_quadrature(StableParams(5, 1.5), 40, basis_last(5), 1.0)
        with pytest.raises(DomainError, match="too small"):
            sphere_quadrature(p, 8, e3, 5e-324)       # pi / scale overflows

    def test_pole_centred_rule_that_does_not_settle(self, monkeypatch):
        # scale 2^-40 takes 128 radial nodes; capped at 64 it is refused
        # rather than returned coarse
        monkeypatch.setattr(analysis, "_POLE_MAX_RADIAL", 64)
        with pytest.raises(DomainError, match="at 64 radial nodes"):
            sphere_quadrature(P3, 8, basis_last(3), 2.0 ** -40)


class TestHyperplaneQuadrature:
    @pytest.mark.parametrize("p,alpha", [(2, 1.2), (2, 1.5), (3, 1.5), (3, 1.8)])
    def test_omega_mass(self, p, alpha):
        par = StableParams(p, alpha)
        g = hyperplane_quadrature(par, 241 if p == 2 else 181, p + alpha - 2.0)
        mass = g.integrate(halfspace.omega_alpha_density(par, g.nodes))
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_odd_integrand_vanishes(self):
        g = hyperplane_quadrature(P2, 201, 3.0)
        vals = g.nodes[:, 0] / (1.0 + g.nodes[:, 0] ** 4)
        assert abs(g.integrate(vals)) < 1e-12

    def test_decay_guard(self):
        with pytest.raises(DomainError):
            hyperplane_quadrature(P2, 101, 0.9)

    def test_tail_bound_reported(self):
        g = hyperplane_quadrature(P2, 101, 2.5)
        assert np.all(np.isfinite(g.nodes)) and np.all(np.isfinite(g.weights))


class TestPoissonIntegralSphere:
    def test_constant_density_gives_phi(self):
        rep = HarmonicRepresentation(SPHERE, density=BoundaryFunction(
            lambda pts: np.ones(len(pts))))
        for x in ([0.5, 0.0], [0.0, 1.7]):
            got = representation_value(P2, rep, x)
            assert got == pytest.approx(sphere.hitting_probability(P2, x), abs=1e-9)

    def test_constant_part_gives_complement(self):
        rep = HarmonicRepresentation(SPHERE, constant=1.0)
        x = np.array([0.3, 0.1])
        want = sphere.phi_complement(P2, float(np.linalg.norm(x)))
        assert representation_value(P2, rep, x) == pytest.approx(want, rel=1e-14, abs=0)

    def test_atoms_sum_exactly(self):
        mu = DiscreteMeasure(np.array([[1.0, 0.0], [0.0, 1.0]]), [0.7, -0.2])
        rep = HarmonicRepresentation(SPHERE, measure=mu)
        x = np.array([0.4, -0.2])
        want = 0.7 * sphere.poisson_kernel(P2, x, np.array([1.0, 0.0])) \
            - 0.2 * sphere.poisson_kernel(P2, x, np.array([0.0, 1.0]))
        assert representation_value(P2, rep, x) == pytest.approx(want, rel=1e-14, abs=0)

    def test_uniform_convergence_to_continuous_density(self):
        # the image of a continuous boundary function converges uniformly
        # as the slice radius tends to 1, from either side
        f = BoundaryFunction(lambda pts: pts[:, 0])
        rep = HarmonicRepresentation(SPHERE, density=f)
        angles = 2.0 * math.pi * np.arange(16) / 16
        boundary = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        sup_errs = []
        for k in (2, 5, 8, 11, 14):
            worst = 0.0
            for sgn in (1.0, -1.0):
                r = 1.0 + sgn * 2.0 ** -k
                for b in boundary:
                    val = representation_value(P2, rep, r * b)
                    worst = max(worst, abs(val - b[0]))
            sup_errs.append(worst)
        # the uniform deviation decays like (1-r)^(alpha-1), slowly
        assert all(b < a for a, b in zip(sup_errs, sup_errs[1:]))
        assert sup_errs[-1] < 1e-2

    def test_on_sphere_rejected(self):
        rep = HarmonicRepresentation(SPHERE, constant=1.0)
        with pytest.raises(DomainError):
            representation_value(P2, rep, [1.0, 0.0])


class TestPoissonIntegralHalfspace:
    def test_constant_density_gives_one(self):
        rep = HarmonicRepresentation(HALFSPACE, density=BoundaryFunction(
            lambda pts: np.ones(len(pts))))
        for x in ([3.0, 0.25], [0.0, -1.4]):
            assert representation_value(P2, rep, x) == pytest.approx(
                1.0, abs=1e-6)

    def test_martin_atom_at_basis(self):
        mu = DiscreteMeasure(np.zeros((1, 1)), [1.0])
        rep = HarmonicRepresentation(HALFSPACE, measure=mu, flavor="martin")
        assert representation_value(P2, rep, basis_last(2)) == \
            pytest.approx(1.0, rel=1e-15, abs=0)

    @pytest.mark.parametrize("alpha", [1.002, 1.01, 1.02, 1.05])
    def test_martin_density_near_alpha_one(self, alpha):
        # near alpha = 1 the rule's tail nodes sit at infinity, where the
        # Gaussian g and omega both vanish: they add 0 to M[g], which matches
        # the quadrature of M(x, y) g(y) over the line at x = (0, 0.5)
        g = BoundaryFunction(lambda y: np.exp(-np.sum(y * y, axis=1)))
        rep = HarmonicRepresentation(HALFSPACE, density=g, flavor="martin")
        p, x = StableParams(2, alpha), np.array([0.0, 0.5])
        kern = lambda y: float(halfspace.martin_kernel(p, x, [[y]])[0]) * math.exp(-y * y)
        want = 2.0 * integrate.quad(kern, 0.0, math.inf, epsabs=0.0, epsrel=1e-13,
                                    limit=200)[0]
        got = halfspace_values(p, rep, x[:1], x[1])[0]
        assert got == pytest.approx(want, rel=1e-9, abs=0.0)
        for d in (3, 4):
            vals = halfspace_values(StableParams(d, alpha), rep, np.zeros((2, d - 1)), 0.5)
            assert np.all(np.isfinite(vals)) and np.all(vals > 0.0)

    def test_lp_convergence_for_compact_density(self):
        f = BoundaryFunction(lambda pts: np.maximum(1.0 - pts[:, 0] ** 2, 0.0))
        rep = HarmonicRepresentation(HALFSPACE, density=f)
        grid = hyperplane_quadrature(P2, 201, P2.alpha)
        fvals = f(grid.nodes)
        errs = []
        for k in (1, 3, 5, 7, 9, 11):
            t = 2.0 ** -k
            uvals = np.array([representation_value(P2, rep, np.array([y[0], t]))
                              for y in grid.nodes])
            errs.append(grid.integrate(np.abs(uvals - fvals)))
        # t^(alpha-1) decay toward the boundary datum
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 8e-2

    def test_integrability_guard(self):
        # a density growing like the inverse of the reference measure has a
        # divergent image and must be refused
        bad = BoundaryFunction(lambda pts: (1.0 + np.sum(pts ** 2, axis=1))
                               ** (P2.alpha / 2.0))
        rep = HarmonicRepresentation(HALFSPACE, density=bad)
        with pytest.raises(IntegrabilityError):
            representation_value(P2, rep, [0.0, 1.0])

    def test_integrability_is_checked_per_parameter_set(self):
        # (1 + |y|^2)^0.35 is omega-integrable at alpha = 1.9, not at 1.2:
        # a pass at one alpha must not carry over to the other
        f = BoundaryFunction(lambda pts: (1.0 + np.sum(pts ** 2, axis=1)) ** 0.35)
        rep = HarmonicRepresentation(HALFSPACE, density=f)
        assert np.isfinite(halfspace_values(StableParams(2, 1.9), rep, [[0.0]], 1.0)[0])
        with pytest.raises(IntegrabilityError):
            halfspace_values(StableParams(2, 1.2), rep, [[0.0]], 1.0)


class TestOmegaProbe:
    def test_convergent(self):
        val, div, _ = omega_integral_probe(P2, lambda pts: np.ones(len(pts)))
        assert not div
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_divergent_at_infinity(self):
        _, div, _ = omega_integral_probe(P2, lambda pts: np.abs(pts[:, 0]))
        assert div

    @pytest.mark.parametrize("d", [2, 3])
    def test_heavy_reference_tail_near_alpha_one(self, d):
        # at alpha = 1.1 omega_alpha itself puts 2/3 of its next-to-last
        # decade shell's mass into the outermost one; that is convergence.
        # The polar grid's radial reach follows the tail's decay in every d
        p = StableParams(d, 1.1)
        val, div, _ = omega_integral_probe(p, lambda pts: np.ones(len(pts)))
        assert not div
        assert val == pytest.approx(1.0, abs=1e-6)
        _, div, _ = omega_integral_probe(p, lambda pts: np.abs(pts[:, 0]))
        assert div

    def test_reference_mass_near_alpha_one_in_d3(self):
        # the per-axis product grid the polar grid replaced sized its reach
        # from the 1-D decay and gave 1 - 0.015 here
        val, div, _ = omega_integral_probe(StableParams(3, 1.05),
                                           lambda pts: np.ones(len(pts)))
        assert not div
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_nodes_past_the_float_range_lie_in_the_outermost_shell(self):
        # at (2, 1.01) the probe grid reaches |y| ~ 2e282: 14 nodes have a
        # squared radius past the float range and carry about 0.024 of the
        # reference measure, all of it beyond the last finite edge 1e12
        p = StableParams(2, 1.01)
        grid = hyperplane_quadrature(p, 241, decay_exponent=p.d + p.alpha - 2.0)
        contrib = grid.weights * halfspace.omega_alpha_density(p, grid.nodes)
        far = np.max(np.abs(grid.nodes), axis=1) > 1e154
        assert far.sum() == 14
        assert contrib[far].sum() == pytest.approx(0.024, abs=1e-3)
        far_shell = np.max(np.abs(grid.nodes), axis=1) >= 1e12
        _, inc = analysis._shell_test(p, grid.nodes, contrib)
        assert inc[-1] == pytest.approx(contrib[far_shell].sum(), rel=1e-12)
        assert inc.sum() == pytest.approx(contrib.sum(), rel=1e-12)
        nodes = grid.nodes.copy()
        nodes[0] = np.nan                 # a NaN node lies in no shell
        _, inc = analysis._shell_test(p, nodes, contrib)
        assert inc.sum() == pytest.approx(contrib[1:].sum(), rel=1e-12)

    def test_divergent_at_interior_point(self):
        with np.errstate(all="ignore"):
            _, div, _ = omega_integral_probe(
                P2, lambda pts: np.abs(pts[:, 0]) ** (P2.alpha - 3.0))
        assert div


def _zonal_poisson_d3(alpha, r, weights, dps=20):
    # the d = 3 Poisson integral at r eta of a density whose mean over each
    # circle psi = const around eta is g(psi):
    #   1/2 int_0^pi K_r(cos psi) g(psi) sin psi dpsi,
    #   K_r(t) = Phi(0) |r^2 - 1|^(alpha-1) (r^2 + 1 - 2 r t)^(-(1+alpha)/2),
    # one value per g in weights, by mpmath quadrature split geometrically
    # around the peak at 0
    with mpmath.workdps(dps):
        a, rr = mpmath.mpf(alpha), mpmath.mpf(r)
        phi0 = mpmath.sqrt(mpmath.pi) * 2 ** (2 - a) * mpmath.gamma((a + 1) / 2) \
            / (mpmath.gamma((a - 1) / 2) * mpmath.gamma(mpmath.mpf(3) / 2))
        c = phi0 * abs(rr * rr - 1) ** (a - 1) / 2
        rho = abs(rr - 1)
        cuts = [mpmath.mpf(0)] + [rho * 4 ** j for j in range(40)
                                  if rho * 4 ** j < mpmath.pi] + [mpmath.pi]
        return [float(mpmath.quad(
            lambda s: c * ((rr - 1) ** 2 + 4 * rr * mpmath.sin(s / 2) ** 2)
            ** (-(1 + a) / 2) * g(s) * mpmath.sin(s), cuts))
            for g in weights]


def _funk_hecke_d3(alpha, r):
    # Funk-Hecke: the d = 3 Poisson integral maps a spherical harmonic of
    # degree n to lambda_n(r) times itself, lambda_n the zonal integral of P_n
    legendre = (lambda s: 1, mpmath.cos, lambda s: (3 * mpmath.cos(s) ** 2 - 1) / 2)
    return _zonal_poisson_d3(alpha, r, legendre)


def _unit_directions(d, m=3):
    v = np.random.default_rng(d).standard_normal((m, d))
    return v / np.linalg.norm(v, axis=1)[:, None]


ONE = BoundaryFunction(lambda pts: np.ones(len(pts)))
NEAR = 2.0 ** -np.arange(1, 41)       # |r - 1| and |t| down to 2^-40


def _assert_unit_density_slices_equal_phi(p, grid):
    rep = HarmonicRepresentation(SPHERE, density=ONE)
    schedule = np.concatenate([1.0 - NEAR, 1.0 + NEAR])
    for s in schedule:
        vals = sphere_values(p, rep, s - 1.0, grid.nodes)
        assert np.max(np.abs(vals - sphere.phi(p, s))) <= 1e-12
    for est in hardy_norms(p, SPHERE, rep, (1.0, math.inf), schedule=schedule, grid=grid):
        for s, got in est.slices:
            assert abs(got - sphere.phi(p, s)) <= 1e-12


def _assert_polar_rule_integrates_unit_density(p):
    t = np.concatenate([[1.0, 1e3], NEAR, -NEAR])
    rep = HarmonicRepresentation(HALFSPACE, density=ONE)
    xbar = np.random.default_rng(0).standard_normal((len(t), p.d - 1))
    vals = halfspace_values(p, rep, xbar, t)
    np.testing.assert_allclose(vals, 1.0, rtol=0.0, atol=1e-12)


class TestEvaluator:
    def test_d3_slices_match_direct_quadrature(self):
        # the reference is the Funk-Hecke multipliers of degrees 0, 1, 2
        p = StableParams(3, 1.2)
        f = BoundaryFunction(lambda z: 1.0 + 0.5 * z[:, 0] - 0.3 * z[:, 2]
                             + 0.4 * z[:, 1] * z[:, 2])
        rep = HarmonicRepresentation(SPHERE, density=f, constant=0.25)
        slice_grid = sphere_quadrature(p, 8)
        eta = slice_grid.nodes
        schedule = np.array([0.5, 3.0, 1.0 - 2.0 ** -2, 1.0 + 2.0 ** -6, 1.0 - 2.0 ** -12,
                             1.0 + 2.0 ** -20, 1.0 - 2.0 ** -30, 1.0 - 2.0 ** -40,
                             1.0 + 2.0 ** -40])
        direct = {}
        for s in schedule:
            lam = _funk_hecke_d3(p.alpha, s)
            assert lam[0] == pytest.approx(sphere.phi(p, s), rel=1e-13, abs=0)
            direct[s] = (lam[0] + lam[1] * (0.5 * eta[:, 0] - 0.3 * eta[:, 2])
                         + lam[2] * 0.4 * eta[:, 1] * eta[:, 2]
                         + 0.25 * sphere.phi_complement(p, s))
            got = sphere_values(p, rep, s - 1.0, eta)
            np.testing.assert_allclose(got, direct[s], rtol=0.0, atol=1e-12)
        for pexp in (1.0, math.inf):
            est = hardy_norm(p, SPHERE, rep, pexp, schedule=schedule,
                             grid=slice_grid)
            for s, got in est.slices:
                u = np.abs(direct[s])
                want = (slice_grid.integrate(u) if pexp == 1.0 else float(np.max(u)))
                assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_d2_unit_density_slices_equal_phi(self):
        _assert_unit_density_slices_equal_phi(P2, sphere_quadrature(P2, 16))

    @pytest.mark.parametrize("d", [3, 4])
    def test_unit_density_slices_equal_phi(self, d):
        p = StableParams(d, 1.5)
        dirs = _unit_directions(d)
        grid = QuadratureGrid(dirs, np.full(len(dirs), 1.0 / len(dirs)))
        _assert_unit_density_slices_equal_phi(p, grid)

    @pytest.mark.parametrize("alpha", [1.005, 1.1, 1.2, 1.5, 1.9])
    def test_d2_line_rule_integrates_unit_density(self, alpha):
        # at alpha = 1.005 a share 0.03 of the kernel lies beyond |y| = 1e300
        _assert_polar_rule_integrates_unit_density(StableParams(2, alpha))

    @pytest.mark.parametrize("alpha", [1.005, 1.1, 1.2, 1.5, 1.9])
    @pytest.mark.parametrize("d", [3, 4])
    def test_polar_rule_integrates_unit_density(self, d, alpha):
        _assert_polar_rule_integrates_unit_density(StableParams(d, alpha))

    def test_d3_boundary_regressions(self):
        # the retired d = 3 grid rules gave 0.340 for Phi = 0.782 here, and
        # 1 + 8.4e-5 for the hyperplane integral of density 1
        p = StableParams(3, 1.2)
        rep = HarmonicRepresentation(SPHERE, density=ONE)
        x = [0.0, 0.0, 1.0 + 2.0 ** -10]
        assert representation_value(p, rep, x) == pytest.approx(
            sphere.phi(p, 1.0 + 2.0 ** -10), abs=1e-12)
        rep = HarmonicRepresentation(HALFSPACE, density=ONE)
        assert representation_value(p, rep, [0.3, -0.2, 0.7]) == pytest.approx(
            1.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [1.2, 1.5])
    def test_d3_off_center_cap_on_sphere(self, alpha):
        # a von Mises-Fisher cap exp(kappa (mu.z - 1)) seen from directions
        # eta orthogonal to mu: its mean over the circle psi = const around
        # eta is exp(-kappa) I0(kappa sin psi), so the reference is one
        # zonal integral.  A ring too coarse for the cap's angular width
        # (16 nodes: 3e-3 at kappa = 20, 0.15 at kappa = 50) shows here
        p = StableParams(3, alpha)
        mu = np.array([1.0, 0.0, 0.0])
        eta = np.array([[0.0, 0.0, 1.0], [0.0, 0.6, 0.8]])
        for kappa in (20.0, 50.0):
            rep = HarmonicRepresentation(SPHERE, density=BoundaryFunction(
                lambda z: np.exp(kappa * (z @ mu - 1.0))))
            for r in (0.5, 0.9, 1.1, 2.0):
                [want] = _zonal_poisson_d3(alpha, r, [
                    lambda s: mpmath.exp(-kappa) * mpmath.besseli(0, kappa * mpmath.sin(s))])
                got = sphere_values(p, rep, r - 1.0, eta)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("alpha", [1.2, 1.5])
    def test_d3_off_center_bump_on_hyperplane(self, alpha):
        # exp(-|y|^2) seen from foot points 3 to 5 away: around a foot point
        # xbar its mean over the circle |y - xbar| = rho is
        # exp(-(|xbar| - rho)^2) ive(0, 2 |xbar| rho), so the reference is a
        # radial integral.  At foot distance 5 the radial rule, not the
        # ring, sets the error (1e-7); a 16-node ring gave 0.14 there
        p = StableParams(3, alpha)
        rep = HarmonicRepresentation(HALFSPACE, density=BoundaryFunction(
            lambda y: np.exp(-np.sum(y * y, axis=1))))
        for xbar in ([3.0, 0.0], [0.0, -4.0], [3.0, 4.0]):
            big = float(np.hypot(*xbar))
            for t in (1.0, 0.3):
                def radial(rho):
                    k = halfspace.poisson_kernel(p, [0.0, 0.0, t], [rho, 0.0])
                    return (float(k) * 2.0 * math.pi * rho * math.exp(-(big - rho) ** 2)
                            * special.ive(0, 2.0 * big * rho))
                want, _ = integrate.quad(radial, 0.0, big + 40.0, points=[big],
                                         epsabs=0.0, epsrel=1e-13, limit=500)
                got = halfspace_values(p, rep, [xbar], t)[0]
                assert got == pytest.approx(want, rel=1e-6, abs=0)

    def test_density_rules_name_the_callers_dimension(self):
        # in d = 7 the density rules' first ring, 8 nodes per level of S^5,
        # takes 65,536 nodes times 120 radial ones, past the node budget, and
        # so does hyperplane_quadrature's 12 per level; in d = 35 and 67 its
        # 64 // (d - 2) nodes per level, 1 and 0, fall below the rule's 8
        # where the count alone would pass.  Each is refused before a node is
        # built, naming d, not the ring's d - 1.  Past d = 17 halfspace_values
        # is refused first by its integrability probe's radial scale bound
        for d in (7, 35, 67):
            p = StableParams(d, 1.5)
            budget = f"nodes in d={d} exceed the budget"
            calls = (
                (lambda: sphere_values(p, HarmonicRepresentation(SPHERE, density=ONE), 0.5,
                                       [basis_last(d)]), budget),
                (lambda: halfspace_values(p, HarmonicRepresentation(HALFSPACE, density=ONE),
                                          [np.zeros(d - 1)], 1.0), budget if d < 18 else None),
                (lambda: hyperplane_quadrature(p, 241, d + 1.0, scale=1e-15),
                 budget if d == 7 else f"d={d} needs resolution >= 8"))
            for call, match in calls:
                start = time.perf_counter()
                with pytest.raises(DomainError, match=match):
                    call()
                assert time.perf_counter() - start < 0.5

    def test_unit_density_in_d6(self):
        # 8 nodes per level make a ring of 2 8^4 = 8,192 nodes on S^4, which
        # the budget admits in d = 6: P[1] is Phi on the sphere and 1 on the
        # hyperplane.  hyperplane_quadrature's 16 per level pass the budget
        # there, so the integrability probe cannot run in d = 6, and its
        # verdict for density 1 is recorded by hand
        p = StableParams(6, 1.5)
        counts = []
        one = BoundaryFunction(lambda z: counts.append(len(z)) or np.ones(len(z)))
        rm1 = np.array([-0.5, -2.0 ** -10, 2.0 ** -30, 3.0, -2.0 ** -300, 2.0 ** -1000])
        dirs = np.tile(_unit_directions(6, 1), (len(rm1), 1))
        got = sphere_values(p, HarmonicRepresentation(SPHERE, density=one), rm1, dirs)
        np.testing.assert_allclose(got, 1.0 - sphere.phi_complement_offset(p, rm1),
                                   rtol=0, atol=1e-14)
        assert counts == [(8192 + 2 * 3 ** 4) * 120] * len(rm1)   # one pass with its check
        rep = HarmonicRepresentation(HALFSPACE, density=ONE)
        rep._integrability_checked.add(p)
        got = halfspace_values(p, rep, np.zeros((2, 5)), [1.0, -2.0 ** -20])
        np.testing.assert_allclose(got, 1.0, rtol=0, atol=1e-14)

    def test_kinked_density_does_not_settle(self):
        # sign(z1) jumps across every ring around a direction off the
        # equator, so the ring converges only algebraically: the rule
        # doubles it up to the budget and says so.  The frame about
        # (0.6, 0, 0.8) centres each jump's arc on the ring, so a check ring
        # of exactly half the nodes would count the same share of its nodes
        # and agree with the kept ring from 512 nodes on
        p = StableParams(3, 1.2)
        rep = HarmonicRepresentation(SPHERE, density=BoundaryFunction(
            lambda z: np.sign(z[:, 0])))
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match="1966080 nodes per point"):
            sphere_values(p, rep, 1.0, [[0.6, 0.0, 0.8]])
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("degree", [16, 32, 48])
    def test_ring_aliases_are_seen(self, degree):
        # Re((x1 + i x2)^n) on rings about e_3 on the sphere, and about the
        # foot point 0 on the hyperplane, is one angular mode n: every
        # midpoint ring whose node count divides n sums it to the same
        # nonzero value.  A check of half the nodes would agree with the kept
        # ring on modes 16 and 32, and an unturned 3-node check with the
        # 8-node ring on mode 48.  The true value is 0 by symmetry
        p = StableParams(3, 1.2)
        rep = HarmonicRepresentation(SPHERE, density=BoundaryFunction(
            lambda z: ((z[:, 0] + 1j * z[:, 1]) ** degree).real))
        got = sphere_values(p, rep, [-0.5, 1.0], [[0.0, 0.0, 1.0]] * 2)
        np.testing.assert_allclose(got, 0.0, rtol=0, atol=1e-12)

        def mode(y):
            # r^n cos(n theta) exp(n (1 - r^2) / 2), 1 at its peak r = 1
            rr = np.sum(y * y, axis=1)
            with np.errstate(divide="ignore"):
                return (np.cos(degree * np.arctan2(y[:, 1], y[:, 0]))
                        * np.exp(0.5 * degree * (np.log(rr) + 1.0 - rr)))
        rep = HarmonicRepresentation(HALFSPACE, density=BoundaryFunction(mode))
        got = halfspace_values(p, rep, np.zeros((2, 2)), [1.0, 3.0])
        np.testing.assert_allclose(got, 0.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("space", [SPHERE, HALFSPACE])
    def test_misshapen_density_is_refused(self, space):
        # an evaluator must return one value per point; a scalar or a short
        # array is refused by name, never broadcast
        p = P3
        for bad, shape in ((lambda z: 1.0, r"\(\)"), (lambda z: np.ones(3), r"\(3,\)")):
            rep = HarmonicRepresentation(space, density=BoundaryFunction(bad))
            with pytest.raises(RepresentationError, match=shape):
                if space == SPHERE:
                    sphere_values(p, rep, 0.5, [basis_last(3)])
                else:
                    halfspace_values(p, rep, [[0.0, 0.0]], 1.0)

    def test_d5_halfspace_density_stays_small(self):
        # one point in d = 5: the ring of 1,024 nodes and its check, built in
        # one buffer per block.  The rule alone is traced here; the
        # integrability probe, on hyperplane_quadrature's grid, runs first
        p = StableParams(5, 1.5)
        rep = HarmonicRepresentation(HALFSPACE, density=ONE)
        analysis._ensure_halfspace_integrable(p, rep)
        tracemalloc.start()
        try:
            got = halfspace_values(p, rep, np.zeros((1, 4)), 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got[0] == pytest.approx(1.0, rel=0, abs=1e-14)
        assert peak < 64e6

    @pytest.mark.parametrize("d", [4, 5])
    def test_unit_density_and_omega_mass_beyond_d3(self, d):
        # the product-rule ring carries the density rules past d = 4: P[1]
        # is Phi on the sphere, 1 on the hyperplane, and omega_alpha has
        # mass 1, each within 1e-13
        p = StableParams(d, 1.5)
        rm1 = np.array([-0.5, -2.0 ** -10, 2.0 ** -30, 3.0, -2.0 ** -300, 2.0 ** -1000])
        dirs = np.tile(_unit_directions(d, 1), (len(rm1), 1))
        got = sphere_values(p, HarmonicRepresentation(SPHERE, density=ONE), rm1, dirs)
        np.testing.assert_allclose(got, 1.0 - sphere.phi_complement_offset(p, rm1),
                                   rtol=0, atol=1e-13)
        got = halfspace_values(p, HarmonicRepresentation(HALFSPACE, density=ONE),
                               np.zeros((2, d - 1)), [1.0, -2.0 ** -20])
        np.testing.assert_allclose(got, 1.0, rtol=0, atol=1e-13)
        g = hyperplane_quadrature(p, 241, d + p.alpha - 2.0)
        assert g.integrate(halfspace.omega_alpha_density(p, g.nodes)) == pytest.approx(
            1.0, rel=0, abs=1e-13)

    def test_non_finite_input_is_refused(self):
        rep = HarmonicRepresentation(SPHERE, density=ONE)
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                sphere_values(P2, rep, bad, [[0.0, 1.0]])
            with pytest.raises(DomainError):
                sphere_values(P2, rep, 0.5, [[0.0, bad]])
        rep = HarmonicRepresentation(HALFSPACE, density=ONE)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                halfspace_values(P2, rep, [[0.0]], bad)
            with pytest.raises(DomainError):
                halfspace_values(P2, rep, [[bad]], 1.0)

    def test_halfspace_batch_matches_points(self):
        g = BoundaryFunction(lambda pts: np.exp(-pts[:, 0] ** 2))
        mu = DiscreteMeasure(np.array([[0.5]]), [0.7])
        xbar = np.array([[0.3], [-1.0], [2.0]])
        t = np.array([0.5, -2.0 ** -20, 3.0])
        for rep in (HarmonicRepresentation(HALFSPACE, density=g, constant=0.2,
                                           flavor="martin"),
                    HarmonicRepresentation(HALFSPACE, measure=mu, constant=0.2)):
            vals = halfspace_values(P2, rep, xbar, t)
            one = [representation_value(P2, rep, [xb[0], tt])
                   for xb, tt in zip(xbar, t)]
            np.testing.assert_allclose(vals, one, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("p", [P2, P3])
    def test_halfspace_atoms_sum_alike_in_any_batch(self, p):
        # each value is its own row sum over the atoms, bit for bit the same
        # in one batched call as in per-point calls
        rng = np.random.default_rng(5)
        mu = DiscreteMeasure(rng.normal(size=(37, p.d - 1)), rng.normal(size=37))
        xbar = rng.normal(size=(23, p.d - 1))
        t = rng.uniform(0.1, 3.0, 23) * rng.choice([-1.0, 1.0], 23)
        for flavor in ("poisson", "martin"):
            rep = HarmonicRepresentation(HALFSPACE, measure=mu, flavor=flavor)
            batch = halfspace_values(p, rep, xbar, t)
            single = [halfspace_values(p, rep, xbar[i:i + 1], t[i:i + 1])[0]
                      for i in range(len(t))]
            assert np.array_equal(batch, single), flavor

    # sha256 of sphere_values for 1 + z_1/2 + z_d^2 and for P[1], so that no
    # change to how the density rule lays out or reduces its nodes moves a bit
    # (d = 5, whose rings lift on Gauss-Jacobi nodes, re-recorded for the
    # Golub-Welsch rule: P[1] within 8.9e-16 of mpmath's Phi, 6.3e-16 before)
    SPHERE_DENSITY_DIGESTS = {
        (2, "one"): "b320488dc9da154097827e4323e1b8a82cc1c246d4c1bd5b32d1443beffee059",
        (2, "poly"): "ae26f834c2b02bec9099b1cbd07d30ed4de01e548a09a435e31e2d76d25b9d9d",
        (3, "one"): "cd88a38174f1c806e091599bf8cfd21a0116c4f3b53ccd1473751325d4c90547",
        (3, "poly"): "6883cc81e44cb9c9b64ecddb011f4c9198549bfbe650d5608aa73de8f0606664",
        (4, "one"): "96d3240cc658b56d9d69c0a1114eca2a43a5a3ba9529ec32d56e5757f9743791",
        (4, "poly"): "1d99af8907c2bdad49b0d80606f0cc01485692a8b700270fcc4134088199c183",
        (5, "one"): "cd6bda8abc8a0c912fb8830858fa6baed75cd011cba66baf04eeac901b5a82ad",
        (5, "poly"): "567e7ed9cb53138fb0ebdbf4c50aea56e5ea9c1e552fda4a497147a4187dd236",
    }

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_sphere_density_rule_keeps_its_bits(self, d):
        p = StableParams(d, 1.5)
        rm1 = np.array([-1.0, 2.0 ** -40, -2.0 ** -40, 2.0 ** -1000, -2.0 ** -1000, 0.5, 3.0])
        dirs = np.random.default_rng(d).standard_normal((len(rm1), d))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        for name, f in (("poly", lambda z: 1.0 + z[:, 0] / 2.0 + z[:, -1] ** 2),
                        ("one", lambda z: np.ones(len(z)))):
            rep = HarmonicRepresentation(SPHERE, density=BoundaryFunction(f))
            got = hashlib.sha256(sphere_values(p, rep, rm1, dirs).tobytes()).hexdigest()
            assert got == self.SPHERE_DENSITY_DIGESTS[d, name], name

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_densities_sum_alike_in_any_batch(self, d):
        # the density rules sum nodes by rows and project ring nodes
        # coordinate by coordinate, so one batched call and per-point calls
        # give the same bits; BLAS products gave up to 2.7e-15 apart
        p = StableParams(d, 1.2 if d == 3 else 1.5)
        rng = np.random.default_rng(48)
        m = 24 if d < 4 else 4
        f = BoundaryFunction(lambda y: np.exp(-np.sum(y * y, axis=1)) * (1.0 + 0.3 * y[:, 0]))
        xbar, t = rng.normal(size=(m, d - 1)), rng.uniform(0.1, 2.0, m) * rng.choice([-1, 1], m)
        for flavor in ("poisson", "martin"):
            rep = HarmonicRepresentation(HALFSPACE, density=f, flavor=flavor)
            batch = halfspace_values(p, rep, xbar, t)
            single = [halfspace_values(p, rep, xbar[i:i + 1], t[i:i + 1])[0] for i in range(m)]
            assert np.array_equal(batch, single), flavor
        rep = HarmonicRepresentation(SPHERE, density=BoundaryFunction(
            lambda z: 1.0 + z[:, 0] / 2.0 + z[:, -1] ** 2))
        dirs = rng.normal(size=(m, d))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        rm1 = rng.uniform(-0.9, 2.0, m)
        rm1[1] = 2.0 ** -1000           # a radius on the three-panel zonal rule
        batch = sphere_values(p, rep, rm1, dirs)
        single = [sphere_values(p, rep, rm1[i:i + 1], dirs[i:i + 1])[0] for i in range(m)]
        assert np.array_equal(batch, single)
        if d == 2:
            return
        # a kappa = 50 cap about e_d on a degree-1 density: rings about e_d
        # are level sets of the cap and settle at once, near the sphere too;
        # from r = 2 beside the cap the ring must double
        counts = []
        rep = HarmonicRepresentation(SPHERE, density=BoundaryFunction(
            lambda z: counts.append(len(z)) or
            1.0 + z[:, 0] / 2.0 + np.exp(50.0 * (z[:, -1] - 1.0))))
        axis, side = basis_last(d), np.eye(d)[0]
        rm1 = np.array([2.0 ** -20, 1.0, -2.0 ** -20, 2.0 ** -1000, 1.0, -0.5])
        dirs = np.array([axis, side, -axis, axis, (side + axis) / math.sqrt(2.0), axis])
        batch = sphere_values(p, rep, rm1, dirs)
        single, nodes = [], []
        for i in range(len(rm1)):
            counts.clear()
            single.append(sphere_values(p, rep, rm1[i:i + 1], dirs[i:i + 1])[0])
            nodes.append(sum(counts))
        assert np.array_equal(batch, single)
        first = 120 * sum(len(analysis._sphere_rule(d, d - 1, n)[1]) for n in (8, 3))
        assert nodes[0] == nodes[2] == nodes[3] == nodes[5] == first
        assert min(nodes[1], nodes[4]) > first


class TestHardyNorm:
    def test_atomic_slice_contraction_sphere(self):
        # slice L1 norms of an atomic Poisson integral never exceed the
        # total variation of the measure
        mu = DiscreteMeasure(np.array([[1.0, 0.0], [0.0, -1.0]]), [0.9, -0.6])
        rep = HarmonicRepresentation(SPHERE, measure=mu)
        grid = sphere_quadrature(P2, 512)
        for r in (0.3, 0.9, 0.999, 1.001, 1.5, 8.0):
            pts = r * grid.nodes
            kern = sphere.poisson_kernel(P2, pts[:, None, :],
                                         mu.atoms[None, :, :])
            vals = kern @ mu.weights
            norm1 = grid.integrate(np.abs(vals))
            assert norm1 <= mu.total_variation * (1.0 + 1e-9)

    def test_hitting_probability_norms(self):
        grid = sphere_quadrature(P2, 64)
        phi_fun = lambda pts: np.array(
            [sphere.phi(P2, float(np.linalg.norm(q))) for q in np.atleast_2d(pts)])
        for pexp in (1.0, 2.0, math.inf):
            est = hardy_norm(P2, SPHERE, phi_fun, pexp, grid=grid)
            assert est.value == pytest.approx(1.0, abs=1e-3)
            assert not est.diverges

    def test_atomic_halfspace_mass(self):
        mu = DiscreteMeasure(np.zeros((1, 1)), [1.0])
        rep = HarmonicRepresentation(HALFSPACE, measure=mu, flavor="poisson")
        est = hardy_norm(P2, HALFSPACE, rep, 1.0,
                         schedule=default_schedule(HALFSPACE, 16))
        assert est.value == pytest.approx(1.0, abs=1e-3)

    def test_linear_coordinate_diverges(self):
        lin = lambda pts: np.atleast_2d(pts)[:, 0]
        est = hardy_norm(P2, HALFSPACE, lin, 1.0,
                         schedule=default_schedule(HALFSPACE, 10))
        assert est.diverges

    def test_slice_sum_past_the_float_range_reads_inf(self):
        # near alpha = 1 the outer slice sums of x_1 pass the float range:
        # they read inf, without a numpy overflow warning
        lin = lambda pts: np.atleast_2d(pts)[:, 0]
        est = hardy_norm(StableParams(2, 1.01), HALFSPACE, lin, 1.0,
                         schedule=default_schedule(HALFSPACE, 10))
        assert est.diverges and math.isinf(est.value)

    def test_shifted_kelvin_image_diverges(self):
        e2 = basis_last(2)
        a = P2.alpha
        kt = lambda pts: (2.0 ** ((4.0 - a) / 2.0) * np.atleast_2d(pts)[:, 0]
                          * np.sum((np.atleast_2d(pts) + e2) ** 2, axis=1)
                          ** ((a - 4.0) / 2.0))
        grid = sphere_quadrature(P2, 65536)
        est = hardy_norm(P2, SPHERE, kt, 1.0, grid=grid,
                         schedule=default_schedule(SPHERE, 12))
        assert est.diverges and est.increasing_at_boundary

    @pytest.mark.parametrize("d,alpha,res", [(2, 1.5, 64), (3, 1.2, 16)])
    def test_shifted_kelvin_image_grows_on_the_pole_centred_grid(self, d, alpha, res):
        # x_1 |x + e_d|^(alpha-d-2) has a non-integrable pole at -e_d: on a
        # rule centred there its L^1 slice norms grow like |r - 1|^(alpha-2)
        # on each side, by 2^(2 (2 - alpha)) per two steps of k (2 at
        # (2, 1.5), 3.03 at (3, 1.2)), where a product grid of 131,072 nodes
        # levels off near 51.5 at d = 3
        p = StableParams(d, alpha)
        kt = lambda pts: (pts[:, 0] * (np.sum(pts[:, :-1] ** 2, axis=1)
                                       + (pts[:, -1] + 1.0) ** 2) ** ((alpha - d - 2.0) / 2.0))
        grid = sphere_quadrature(p, res, -basis_last(d), 2.0 ** -13)
        slices = dict(hardy_norm(p, SPHERE, kt, 1.0, grid=grid,
                                 schedule=default_schedule(SPHERE, 12)).slices)
        want = 2.0 ** (2.0 * (2.0 - alpha))
        for side in (-1.0, 1.0):
            growth = [slices[1.0 + side * 2.0 ** -(k + 2)] / slices[1.0 + side * 2.0 ** -k]
                      for k in range(6, 11)]
            assert all(0.96 * want < g < 1.06 * want for g in growth), (side, growth)

    def test_exponent_guard(self):
        with pytest.raises(DomainError):
            hardy_norm(P2, SPHERE, lambda pts: np.ones(len(pts)), 0.5)


class TestHardyNorms:
    PEXPS = (1.0, 2.0, math.inf)

    @staticmethod
    def _cases():
        f = BoundaryFunction(lambda pts: 1.0 + 0.5 * pts[:, 0])
        mu = DiscreteMeasure(np.array([[0.0], [1.5]]), [1.0, -0.4])
        return [
            (P3, SPHERE, HarmonicRepresentation(SPHERE, density=f),
             default_schedule(SPHERE, 3), sphere_quadrature(P3, 8)),
            (P2, SPHERE, HarmonicRepresentation(SPHERE, density=f, constant=0.3),
             default_schedule(SPHERE, 6), sphere_quadrature(P2, 32)),
            (P2, HALFSPACE, HarmonicRepresentation(HALFSPACE, measure=mu,
                                                   flavor="poisson"),
             default_schedule(HALFSPACE, 6), None),
            (P2, HALFSPACE, lambda pts: np.atleast_2d(pts)[:, 0],
             default_schedule(HALFSPACE, 6), None),
        ]

    def test_equal_to_separate_hardy_norms(self):
        for p, space, u, schedule, grid in self._cases():
            together = hardy_norms(p, space, u, self.PEXPS, schedule=schedule, grid=grid)
            apart = [hardy_norm(p, space, u, pexp, schedule=schedule, grid=grid)
                     for pexp in self.PEXPS]
            assert together == apart

    @pytest.mark.parametrize("d,alpha,fine", [(2, 1.5, 64), (3, 1.2, 24)])
    def test_resolution_8_is_exact_for_degree_1_slices(self, d, alpha, fine):
        # every slice of a degree-1 density plus c (1 - Phi) is degree 1 on
        # the sphere, so resolution 8 gives the L^2 norms of the finer grid,
        # and the L^1 norms too where the slices keep one sign; its grid
        # maximum, a lower bound of the sup, is no larger
        p = StableParams(d, alpha)
        schedule = default_schedule(SPHERE, 4)
        cases = [((1.0, 0.5, 0.0), True), ((0.8, 0.5, 0.6), True), ((0.4, 0.9, -0.7), False)]
        for (a1, a2, c), one_signed in cases:
            f = BoundaryFunction(lambda pts, a1=a1, a2=a2: a1 + a2 * pts[:, 0])
            rep = HarmonicRepresentation(SPHERE, density=f, constant=c)
            coarse, ref = (hardy_norms(p, SPHERE, rep, self.PEXPS, schedule=schedule,
                                       grid=sphere_quadrature(p, res)) for res in (8, fine))
            for i in (0, 1) if one_signed else (1,):
                for (s, got), (_, want) in zip(coarse[i].slices, ref[i].slices):
                    assert got == pytest.approx(want, rel=1e-13, abs=0), (a1, c, i, s)
            assert coarse[2].value <= ref[2].value

    def test_each_slice_evaluated_once(self):
        calls = []

        def u(pts):
            calls.append(len(pts))
            return 1.0 + np.atleast_2d(pts)[:, 0]

        schedule = default_schedule(SPHERE, 5)
        ests = hardy_norms(P2, SPHERE, u, self.PEXPS, schedule=schedule,
                           grid=sphere_quadrature(P2, 16))
        assert len(calls) == len(schedule)
        assert [len(est.slices) for est in ests] == [len(schedule)] * 3

    def test_exponent_guard(self):
        with pytest.raises(DomainError):
            hardy_norms(P2, SPHERE, lambda pts: np.ones(len(pts)), (1.0, 0.5))

    @staticmethod
    def _per_slice(p, rep, pexps, schedule, grid):
        # the reference: one sphere_values call and one slice norm per slice
        slices = [[] for _ in pexps]
        for s in schedule:
            values = sphere_values(p, rep, s - 1.0, grid.nodes)
            for q, out in zip(pexps, slices):
                out.append((float(s), analysis._slice_norm(SPHERE, p, values, grid, q)))
        return [analysis._summarize_schedule(SPHERE, sl) for sl in slices]

    @staticmethod
    def _atoms(d, n, seed):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((n, d))
        return DiscreteMeasure(z / np.linalg.norm(z, axis=1)[:, None],
                               rng.uniform(-1.0, 1.0, n))

    @pytest.mark.parametrize("case", ["density-d2", "density-d3", "atoms-d2", "atoms-d3"])
    def test_sphere_batches_equal_per_slice_reference(self, case, monkeypatch):
        # a budget of three slices per sphere_values call splits the schedule
        # into several batches; every field of every estimate keeps the bits
        # of the reference, evaluated under the same budget
        kind, d = case.split("-d")
        p = P2 if d == "2" else StableParams(3, 1.2)
        f = BoundaryFunction(lambda pts: 1.0 + 0.5 * pts[:, 0] - 0.25 * pts[:, -1] ** 2)
        rep = (HarmonicRepresentation(SPHERE, density=f, constant=0.4) if kind == "density"
               else HarmonicRepresentation(SPHERE, measure=self._atoms(p.d, 37, 3),
                                           constant=-0.3))
        grid = sphere_quadrature(p, 16 if p.d == 2 else 8)
        schedule = default_schedule(SPHERE, 4)
        monkeypatch.setattr(analysis, "_BLOCK", 3 * len(grid.nodes) + 1)
        want = self._per_slice(p, rep, self.PEXPS, schedule, grid)
        calls = []
        counted = lambda *args: calls.append(1) or sphere_values(*args)
        monkeypatch.setattr(analysis, "sphere_values", counted)
        got = hardy_norms(p, SPHERE, rep, self.PEXPS, schedule=schedule, grid=grid)
        assert len(calls) == math.ceil(len(schedule) / 3)
        assert got == want

    def test_default_grid_batches_equal_per_slice_reference(self):
        # the default d = 2 grid under the real budget: two batches
        f = BoundaryFunction(lambda pts: 1.0 + 0.5 * pts[:, 0])
        rep = HarmonicRepresentation(SPHERE, density=f, constant=-0.7)
        grid = analysis._default_sphere_grid(P2)
        schedule = default_schedule(SPHERE, 10)
        assert analysis._BLOCK < len(schedule) * len(grid.nodes) <= 2 * analysis._BLOCK
        assert hardy_norms(P2, SPHERE, rep, self.PEXPS, schedule=schedule) == \
            self._per_slice(P2, rep, self.PEXPS, schedule, grid)

    def test_sphere_values_with_atoms_beyond_one_block(self):
        # more than _BLOCK points, whose row blocks cut across the slices,
        # give each point the bits of its slice evaluated alone
        grid = sphere_quadrature(P2, 4096)
        rs = np.array([0.25, 0.75, 0.999, 1.001, 1.5, 4.0, 64.0, 1e6, 1e12])
        assert len(rs) * len(grid.nodes) > analysis._BLOCK
        rep = HarmonicRepresentation(SPHERE, measure=self._atoms(2, 37, 5), constant=0.6)
        together = sphere_values(P2, rep, np.repeat(rs - 1.0, len(grid.nodes)),
                                 np.tile(grid.nodes, (len(rs), 1)))
        apart = np.concatenate([sphere_values(P2, rep, r - 1.0, grid.nodes) for r in rs])
        assert np.array_equal(together, apart)

    @staticmethod
    def _per_slice_hyperplane(p, u, pexps, schedule):
        # the reference: each slice on a grid built at its own scale about the
        # support, hyperplane_quadrature(p, 241, d + alpha - 2, center, lam)
        rep = u if isinstance(u, HarmonicRepresentation) else None
        center, spread = analysis._halfspace_support(p, rep)
        slices = [[] for _ in pexps]
        for t in schedule:
            g = hyperplane_quadrature(p, 241, p.d + p.alpha - 2.0, center, max(abs(t), spread))
            values = (halfspace_values(p, rep, g.nodes, t) if rep is not None
                      else u(np.concatenate([g.nodes, np.full((len(g.nodes), 1), t)], axis=1)))
            for q, out in zip(pexps, slices):
                out.append((float(t), analysis._slice_norm(HALFSPACE, p, values, g, q)))
        return [analysis._summarize_schedule(HALFSPACE, sl) for sl in slices]

    @pytest.mark.parametrize("kind", ["atom", "linear"])
    @pytest.mark.parametrize("d,alpha", [(2, 1.5), (3, 1.2)])
    def test_shared_hyperplane_grid_equals_per_slice_grids(self, d, alpha, kind,
                                                           monkeypatch):
        # every height of the default schedule is a power of two, and so is
        # each slice's scale: the one unit grid, scaled, gives every field of
        # every estimate the bits of the grids built slice by slice
        p = StableParams(d, alpha)
        u = (HarmonicRepresentation(HALFSPACE, measure=DiscreteMeasure(np.zeros((1, d - 1)),
                                                                       [1.0]))
             if kind == "atom" else lambda pts: pts[:, 0])
        schedule = default_schedule(HALFSPACE, 16)
        want = self._per_slice_hyperplane(p, u, self.PEXPS, schedule)
        calls = []
        counted = lambda *args, **kw: calls.append(1) or hyperplane_quadrature(*args, **kw)
        monkeypatch.setattr(analysis, "hyperplane_quadrature", counted)
        assert hardy_norms(p, HALFSPACE, u, self.PEXPS, schedule=schedule) == want
        assert len(calls) == 1

    def test_shared_hyperplane_grid_at_a_support_spread(self):
        # atoms at 0 and 1.5 spread 0.75 about their mean: slices below that
        # height take the scale 0.75, which rounds the nodes differently
        p, space, u, schedule, _ = self._cases()[2]
        want = self._per_slice_hyperplane(p, u, self.PEXPS, schedule)
        for got, ref in zip(hardy_norms(p, space, u, self.PEXPS, schedule=schedule), want):
            assert [s for s, _ in got.slices] == [s for s, _ in ref.slices]
            assert [v for _, v in got.slices] == pytest.approx(
                [v for _, v in ref.slices], rel=1e-14, abs=0)

    @pytest.mark.parametrize("d,alpha", [(2, 1.5), (3, 1.2)])
    def test_radial_profiles_read_at_the_exact_radius(self, d, alpha):
        # P[1] = Phi and 1 (1 - Phi) are radial: on one node each slice norm
        # is the profile at the slice radius s, which enters as the exact
        # offset s - 1, never as the norm of a node rounded onto its sphere
        p = StableParams(d, alpha)
        one_node = QuadratureGrid(basis_last(d)[None, :], np.ones(1))
        ks = np.arange(1, 49, dtype=float)
        schedule = np.concatenate([1.0 - 2.0 ** -ks, 1.0 + 2.0 ** -ks, 2.0 ** ks])
        poisson_of_one = HarmonicRepresentation(
            SPHERE, density=BoundaryFunction(lambda pts: np.ones(len(pts))))
        for est in hardy_norms(p, SPHERE, poisson_of_one, self.PEXPS, schedule=schedule,
                               grid=one_node):
            for s, v in est.slices:
                assert v == pytest.approx(sphere.phi(p, s), rel=1e-13, abs=0), s
        constant_one = HarmonicRepresentation(SPHERE, constant=1.0)
        for est in hardy_norms(p, SPHERE, constant_one, self.PEXPS, schedule=schedule,
                               grid=one_node):
            for s, v in est.slices:
                assert v == sphere.phi_complement_offset(p, s - 1.0), s

    REFUSED = [("empty", SPHERE, []), ("empty", HALFSPACE, []),
               ("not-finite", SPHERE, [0.5, math.nan]),
               ("not-finite", HALFSPACE, [0.5, -math.inf]),
               ("negative-radius", SPHERE, [0.5, -0.5]),
               ("radius-one", SPHERE, [0.5, 1.0]),
               ("zero-height", HALFSPACE, [0.5, 0.0])]

    @pytest.mark.parametrize("kind", ["representation", "callable"])
    @pytest.mark.parametrize("why,space,schedule", REFUSED,
                             ids=[f"{w}-{s.lower()}" for w, s, _ in REFUSED])
    def test_schedule_refused(self, why, space, schedule, kind):
        # a sphere callable at s = 1 would read 1.0 and a hyperplane one at
        # t = 0 would read inf: every such schedule is refused before any slice
        if kind == "callable":
            u = lambda pts: np.ones(len(pts))
        elif space == SPHERE:
            u = HarmonicRepresentation(SPHERE, constant=1.0)
        else:
            u = HarmonicRepresentation(HALFSPACE, measure=DiscreteMeasure(np.zeros((1, 1)),
                                                                          [1.0]))
        with pytest.raises(DomainError):
            hardy_norms(P2, space, u, self.PEXPS, schedule=np.array(schedule))

    @pytest.mark.parametrize("kind", ["representation", "callable"])
    @pytest.mark.parametrize("d,t", [(2, 1e300), (3, 1e160)], ids=["nodes", "measure"])
    def test_slice_past_the_float_range_refused(self, d, t, kind):
        # at d = 2 the scaled nodes leave the float range, at d = 3 the
        # slice's measure lam^2 sum w: refused, never reported as diverging
        p = StableParams(d, 1.5)
        u = (HarmonicRepresentation(HALFSPACE, measure=DiscreteMeasure(np.zeros((1, d - 1)),
                                                                       [1.0]))
             if kind == "representation" else lambda pts: np.ones(len(pts)))
        with pytest.raises(DomainError, match="float range"):
            hardy_norms(p, HALFSPACE, u, self.PEXPS, schedule=np.array([1.0, t]))


class TestProbHardyNorm:
    def test_sphere_atomic(self):
        kc = sphere.constants(P2)
        mu = DiscreteMeasure(np.array([[1.0, 0.0], [-1.0, 0.0]]), [1.5, -0.5])
        rep = HarmonicRepresentation(SPHERE, measure=mu, constant=-0.25)
        want = kc.phi_at_origin * 2.0 + 0.25 * (1.0 - kc.phi_at_origin)
        assert prob_hardy_norm(P2, rep, 1.0) == pytest.approx(want, rel=1e-14, abs=0)

    def test_halfspace_atomic(self):
        mu = DiscreteMeasure(np.zeros((1, 1)), [1.0])
        rep = HarmonicRepresentation(HALFSPACE, measure=mu, constant=3.0,
                                     flavor="martin")
        assert prob_hardy_norm(P2, rep, 1.0) == pytest.approx(4.0, rel=1e-15, abs=0)

    def test_sphere_density_p2(self):
        kc = sphere.constants(P2)
        f = BoundaryFunction(lambda pts: 1.0 + 0.5 * pts[:, 0])
        rep = HarmonicRepresentation(SPHERE, density=f, constant=0.5)
        norm2 = 1.0 + 0.125   # mean of (1 + z1/2)^2 over the circle
        want = math.sqrt(kc.phi_at_origin * norm2
                         + 0.25 * (1.0 - kc.phi_at_origin))
        assert prob_hardy_norm(P2, rep, 2.0) == pytest.approx(want, rel=1e-6, abs=0)

    def test_atomic_p2_rejected(self):
        mu = DiscreteMeasure(np.array([[1.0, 0.0]]), [1.0])
        rep = HarmonicRepresentation(SPHERE, measure=mu)
        with pytest.raises(RepresentationError):
            prob_hardy_norm(P2, rep, 2.0)

    def test_halfspace_constant_not_in_lp(self):
        rep = HarmonicRepresentation(HALFSPACE, density=BoundaryFunction(
            lambda pts: np.exp(-pts[:, 0] ** 2)), constant=1.0)
        assert prob_hardy_norm(P2, rep, 2.0) == math.inf

    def test_kelvin_gallery_diverges(self):
        a = P2.alpha
        trace = BoundaryFunction(
            lambda pts: np.abs(pts[:, 0])
            * np.abs(pts[:, 0]) ** (a - 4.0))
        rep = HarmonicRepresentation(HALFSPACE, density=trace, flavor="poisson")
        with np.errstate(all="ignore"):
            assert prob_hardy_norm(P2, rep, 1.0) == math.inf


class TestMajorant:
    def test_nonnegative_rep_is_fixed_point(self):
        f = BoundaryFunction(lambda pts: 1.0 + 0.5 * pts[:, 0])
        rep = HarmonicRepresentation(SPHERE, density=f, constant=0.5)
        x = np.array([0.4, 0.1])
        u = representation_value(P2, rep, x)
        assert majorant(P2, rep, 1.0, x) == pytest.approx(u, rel=1e-12, abs=0)

    def test_jensen_domination(self):
        f = BoundaryFunction(lambda pts: pts[:, 0])
        rep = HarmonicRepresentation(SPHERE, density=f)
        rng = np.random.default_rng(11)
        count = 0
        while count < 100:
            x = rng.uniform(-1.5, 1.5, 2)
            if abs(np.linalg.norm(x) - 1.0) < 0.05:
                continue
            count += 1
            u = representation_value(P2, rep, x)
            bound = majorant(P2, rep, 2.0, x)
            assert u * u <= bound * (1.0 + 1e-9) + 1e-12

    def test_base_point_matches_prob_norm(self):
        f = BoundaryFunction(lambda pts: 1.0 + 0.5 * pts[:, 0])
        rep = HarmonicRepresentation(SPHERE, density=f, constant=0.5)
        for pexp in (1.0, 2.0):
            closed = prob_hardy_norm(P2, rep, pexp)
            base = majorant(P2, rep, pexp, np.zeros(2)) ** (1.0 / pexp)
            assert base == pytest.approx(closed, abs=1e-6)
        mu = DiscreteMeasure(np.zeros((1, 1)), [0.7])
        rep_h = HarmonicRepresentation(HALFSPACE, measure=mu, constant=0.3,
                                       flavor="martin")
        base = majorant(P2, rep_h, 1.0, basis_last(2))
        assert base == pytest.approx(prob_hardy_norm(P2, rep_h, 1.0), rel=1e-12, abs=0)

    def test_majorant_is_harmonic(self):
        # spot check: the density part of a majorant annihilates the
        # principal-value operator at an interior point; the tolerance is
        # set by the (distance)^(alpha-1) crease every function harmonic
        # off the circle carries at the circle, which slows the angular rule
        f = BoundaryFunction(lambda pts: 1.0 + 0.5 * pts[:, 0])
        grid = sphere_quadrature(P2, 128)
        fw = grid.weights * np.abs(f(grid.nodes))

        def maj(pts):
            pts = np.atleast_2d(pts)
            out = np.empty(len(pts))
            block = 16384
            for i in range(0, len(pts), block):
                chunk = pts[i:i + block]
                kern = sphere.poisson_kernel(P2, chunk[:, None, :],
                                             grid.nodes[None, :, :])
                out[i:i + block] = kern @ fw
            return out

        res = fractional_laplacian(P2, maj, np.array([0.3, 0.2]),
                                   growth_exponent=0.0,
                                   n_angle=512, n_radial=256)
        assert abs(res.value) < 5e-3 * res.local_scale


class TestFractionalLaplacian:
    def test_linear_coordinate(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            x = rng.uniform(-0.8, 0.8, 2)
            res = fractional_laplacian(P2, lambda pts: pts[:, 0], x,
                                       growth_exponent=1.0)
            assert abs(res.value) < 1e-3 * res.local_scale

    def test_martin_infinity_profile(self):
        rng = np.random.default_rng(13)
        a = P2.alpha
        for _ in range(5):
            x = rng.uniform(0.3, 1.0, 2)
            res = fractional_laplacian(
                P2, lambda pts: np.abs(pts[:, 1]) ** (a - 1.0), x,
                growth_exponent=a - 1.0)
            assert abs(res.value) < 1e-3 * res.local_scale

    def test_gaussian_is_negative_with_closed_form(self):
        res = fractional_laplacian(
            P2, lambda pts: np.exp(-np.sum(pts ** 2, axis=1)), np.zeros(2),
            growth_exponent=0.0)
        kc = sphere.constants(P2)
        want = kc.a_d_neg_alpha * math.pi * math.gamma(-P2.alpha / 2.0)
        assert res.value < 0.0
        assert res.value == pytest.approx(want, rel=1e-6, abs=0)

    def test_growth_guard(self):
        with pytest.raises(IntegrabilityError):
            fractional_laplacian(P2, lambda pts: pts[:, 0], np.zeros(2),
                                 growth_exponent=1.6)

    def test_dimension_guard(self):
        # the default 256 directions round to 6 per level in d = 4, below
        # the rule's 8: the error names n_angle and the least that serves
        with pytest.raises(DomainError, match="n_angle=256 .* d=4.* at least 422"):
            fractional_laplacian(StableParams(4, 1.5), lambda pts: pts[:, 0],
                                 np.zeros(4), growth_exponent=1.0)
        for d, least in ((3, 58), (4, 422), (5, 3166)):
            # n_angle is even: least - 2 rounds to 7 per level, least to 8
            assert round((least - 2) ** (1.0 / (d - 1))) == 7
            assert round(least ** (1.0 / (d - 1))) == 8
            with pytest.raises(DomainError, match=f"n_angle={least - 2} .* even and at least "
                                                  f"{least}$"):
                fractional_laplacian(StableParams(d, 1.5), lambda pts: pts[:, 0],
                                     np.zeros(d), growth_exponent=1.0, n_angle=least - 2)
        res = fractional_laplacian(StableParams(4, 1.5), lambda pts: pts[:, 0],
                                   np.zeros(4), growth_exponent=1.0, n_angle=422)
        assert abs(res.value) < 1e-3 * res.local_scale


    @pytest.mark.parametrize("alpha", [1.05, 1.2, 1.5, 1.9, 1.99])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_gaussian_against_closed_form(self, d, alpha):
        # (-Delta)^(alpha/2) applied to exp(-|x|^2), with the sign of the
        # generator: -2^alpha Gamma((d+alpha)/2)/Gamma(d/2) 1F1((d+alpha)/2; d/2; -|x|^2);
        # in d = 4 on an 8 x 8 x 16 direction grid
        p = StableParams(d, alpha)
        for x in (np.zeros(d), np.eye(d)[0] * 0.5 - np.eye(d)[1] * 0.3):
            res = fractional_laplacian(p, lambda pts: np.exp(-np.sum(pts ** 2, axis=1)), x,
                                       n_angle=512 if d == 4 else 256)
            want = float(-mpmath.mpf(2) ** alpha * mpmath.gamma((d + alpha) / 2.0)
                         / mpmath.gamma(d / 2.0)
                         * mpmath.hyp1f1((d + alpha) / 2.0, d / 2.0, -float(x @ x)))
            assert res.value == pytest.approx(want, rel=5e-5, abs=0)

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.9])
    def test_harmonic_profiles_in_d3(self, alpha):
        p = StableParams(3, alpha)
        lin = fractional_laplacian(p, lambda pts: pts[:, 0], np.array([0.3, 0.0, 0.7]),
                                   growth_exponent=1.0)
        assert abs(lin.value) < 2e-4 * lin.local_scale
        mar = fractional_laplacian(p, lambda pts: np.abs(pts[:, -1]) ** (alpha - 1.0),
                                   np.array([0.4, 0.0, 0.8]), growth_exponent=alpha - 1.0)
        assert abs(mar.value) < 2e-4 * mar.local_scale


class TestFatouProbe:
    def test_smooth_density_sphere(self):
        f = BoundaryFunction(lambda pts: 1.0 + 0.5 * pts[:, 0])
        rep = HarmonicRepresentation(SPHERE, density=f, constant=0.5)
        rng = np.random.default_rng(14)
        probe = fatou_probe(P2, rep, np.array([0.6, 0.8]), beta=0.5, depth=20,
                            rng=rng)
        tail = probe.running_max_tail
        assert tail[-1] < 1e-2
        assert probe.target == pytest.approx(1.3)

    def test_off_atom_limit_is_zero(self):
        mu = DiscreteMeasure(np.array([[0.0, 1.0]]), [1.0])
        rep = HarmonicRepresentation(SPHERE, measure=mu)
        probe = fatou_probe(P2, rep, np.array([1.0, 0.0]), beta=1.0, depth=20,
                            rng=np.random.default_rng(15))
        assert probe.target == 0.0
        assert probe.running_max_tail[-1] < 1e-2

    def test_martin_flavor_targets_reference_density(self):
        g = BoundaryFunction(lambda pts: np.exp(-pts[:, 0] ** 2))
        rep = HarmonicRepresentation(HALFSPACE, density=g, flavor="martin")
        ybar = np.array([0.3])
        probe = fatou_probe(P2, rep, ybar, beta=4.0, depth=18,
                            rng=np.random.default_rng(16))
        want = math.exp(-0.09) / float(halfspace.omega_alpha_density(P2, ybar))
        assert probe.target == pytest.approx(want, rel=1e-12, abs=0)
        assert probe.running_max_tail[-1] < 1e-2

    def test_cone_guard(self):
        rep = HarmonicRepresentation(SPHERE, constant=1.0)
        with pytest.raises(DomainError):
            fatou_probe(P2, rep, np.array([1.0, 0.0]), beta=0.0, depth=3)


class TestRepresentationValidation:
    def test_measure_or_density(self):
        mu = DiscreteMeasure(np.array([[1.0, 0.0]]), [1.0])
        with pytest.raises(RepresentationError):
            HarmonicRepresentation(SPHERE, measure=mu,
                                   density=BoundaryFunction(lambda pts: pts[:, 0]))

    def test_atoms_distinct(self):
        with pytest.raises(DomainError):
            DiscreteMeasure(np.array([[1.0, 0.0], [1.0, 0.0]]), [1.0, 2.0])

    def test_total_variation_and_absolute(self):
        mu = DiscreteMeasure(np.array([[1.0, 0.0], [0.0, 1.0]]), [1.5, -0.5])
        assert mu.total_variation == 2.0
        assert np.all(mu.absolute().weights >= 0.0)

    def test_sphere_has_no_martin_flavor(self):
        with pytest.raises(RepresentationError):
            HarmonicRepresentation(SPHERE, constant=1.0, flavor="martin")

    def test_space_mismatch_rejected(self):
        rep_s = HarmonicRepresentation(SPHERE, constant=1.0)
        rep_h = HarmonicRepresentation(HALFSPACE, constant=1.0)
        with pytest.raises(RepresentationError):
            sphere_values(P2, rep_h, -0.5, [[1.0, 0.0]])
        with pytest.raises(RepresentationError):
            halfspace_values(P2, rep_s, [[0.5]], 1.0)

    def test_hyperplane_center_validation(self):
        with pytest.raises(DomainError):
            hyperplane_quadrature(P2, 64, 3.0, center=np.zeros(2))
        with pytest.raises(DomainError):
            hyperplane_quadrature(P2, 64, 3.0, scale=-1.0)
