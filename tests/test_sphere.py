import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate

from stablepot.core import INFINITY, StableParams
from stablepot.errors import DomainError, SingularityError
from stablepot.sphere import (ball_constant, ball_poisson_kernel, constants,
                              green_function, hitting_probability,
                              martin_kernel, phi, phi_complement,
                              phi_complement_delta, poisson_kernel)

P2 = StableParams(2, 1.5)
P3 = StableParams(3, 1.5)


def mp_phi(d, alpha, r, dps=40):
    # high-precision reference straight from the Legendre-function formula
    with mpmath.workdps(dps):
        a = mpmath.mpf(alpha)
        rr = mpmath.mpf(r)
        c2 = mpmath.sqrt(mpmath.pi) * 2 ** (2 - a) * mpmath.gamma((a + d) / 2 - 1) \
            / mpmath.gamma((a - 1) / 2)
        if r == 0:
            return float(c2 / mpmath.gamma(mpmath.mpf(d) / 2))
        t = (rr * rr + 1) / abs(rr * rr - 1)
        return float(c2 * abs(rr * rr - 1) ** (a / 2 - 1) * rr ** (1 - mpmath.mpf(d) / 2)
                     * mpmath.legenp(-a / 2, 1 - mpmath.mpf(d) / 2, t, type=3))


class TestConstants:
    def test_values_match_formulas(self):
        for p in (P2, StableParams(3, 1.2)):
            d, a = p.d, p.alpha
            kc = constants(p)
            assert kc.c1 == pytest.approx(
                math.gamma(d / 2) * math.pi ** (-1 - d / 2) * math.sin(math.pi * a / 2),
                rel=1e-15)
            assert kc.c2 == pytest.approx(
                math.sqrt(math.pi) * 2 ** (2 - a) * math.gamma((a + d) / 2 - 1)
                / math.gamma((a - 1) / 2), rel=1e-15)
            assert kc.c3 == pytest.approx(
                math.pi ** ((1 - d) / 2) * math.gamma((a + d) / 2 - 1)
                / math.gamma((a - 1) / 2), rel=1e-15)
            assert kc.c1 > 0 and kc.c2 > 0 and kc.c3 > 0
            assert kc.series_c < 0
            assert 0.0 < kc.phi_at_origin < 1.0

    def test_alpha_range_guard(self):
        with pytest.raises(DomainError):
            constants(StableParams(2, 0.9))

    @staticmethod
    def _mp_constants(d, alpha):
        with mpmath.workdps(50):
            a, g, pi = mpmath.mpf(alpha), mpmath.gamma, mpmath.pi
            c2 = mpmath.sqrt(pi) * 2 ** (2 - a) * g((a + d) / 2 - 1) / g((a - 1) / 2)
            want = {
                "a_d_alpha": g((d - a) / 2) / (2 ** a * pi ** (mpmath.mpf(d) / 2) * g(a / 2)),
                "a_d_neg_alpha": g((d + a) / 2) / (2 ** -a * pi ** (mpmath.mpf(d) / 2)
                                                   * abs(g(-a / 2))),
                "c1": g(mpmath.mpf(d) / 2) * pi ** (-1 - mpmath.mpf(d) / 2)
                * mpmath.sin(pi * a / 2),
                "c2": c2,
                "c3": pi ** ((1 - mpmath.mpf(d)) / 2) * g((a + d) / 2 - 1) / g((a - 1) / 2),
                "series_c": c2 * g(1 - a) / (g(1 - a / 2) * g((d - a) / 2)),
                "phi_at_origin": c2 / g(mpmath.mpf(d) / 2),
            }
            return {k: float(v) for k, v in want.items()}

    def test_ulps_against_mpmath(self):
        # within 4 ulp at the verify points; over alpha in (1, 2) the worst is
        # c1 near alpha = 2, where sin(pi alpha / 2) loses about 29 ulp
        for d in (2, 3):
            for a in [1.5 if d == 2 else 1.2] + list(np.linspace(1.01, 1.99, 50)):
                kc = constants(StableParams(d, float(a)))
                bound = 4 if (d, a) in ((2, 1.5), (3, 1.2)) else 32
                for name, want in self._mp_constants(d, float(a)).items():
                    assert abs(getattr(kc, name) - want) <= bound * math.ulp(want), \
                        (d, a, name)

    def test_large_dimension(self):
        # Gamma((d + alpha)/2 - 1) alone overflows from d ~ 340; the ratios
        # phi needs stay finite, and a constant beyond the float range is a
        # DomainError naming it
        p = StableParams(400, 1.5)
        kc = constants(p)
        for name, want in self._mp_constants(400, 1.5).items():
            if name == "c2":
                with pytest.raises(DomainError, match="c2"):
                    kc.c2
            else:
                assert getattr(kc, name) == pytest.approx(want, rel=2e-13), name
        with pytest.raises(DomainError, match="c1"):
            ball_constant(StableParams(500, 1.5))
        for r in (0.5, 0.9995, 2.0, 3.0):
            got = phi(p, r)
            assert 0.0 <= got <= 1.0
            assert got == pytest.approx(mp_phi(400, 1.5, r, dps=80), rel=1e-12)

    def test_large_dimension_cancellation_is_refused(self):
        # in the golden-ratio band the two reduced terms cancel ever harder
        # as d grows; at d = 400 and r = 1.5 they left -1.2e-15
        with pytest.raises(DomainError, match="d = 12"):
            phi(StableParams(400, 1.5), 1.5)
        with pytest.raises(DomainError):
            phi(StableParams(400, 1.5), 0.7)


class TestPhi:
    def test_origin_value(self):
        assert phi(P2, 0.0) == constants(P2).phi_at_origin
        assert hitting_probability(P2, [0.0, 0.0]) == constants(P2).phi_at_origin

    def test_on_sphere_is_one(self):
        assert phi(P2, 1.0) == 1.0

    def test_hitting_probability_at_huge_norm(self):
        # |x|^2 overflows; the norm must not
        for x in ([0.0, 1e200], [3e300, -4e300]):
            r = float(np.hypot(*x))
            assert hitting_probability(P2, x) == pytest.approx(phi(P2, r), rel=1e-12)
        assert phi(P2, 1e200) == pytest.approx(8.472130847939793e-101, rel=1e-12)

    def test_complement_rejects_infinite_delta(self):
        with pytest.raises(DomainError):
            phi_complement_delta(P2, math.inf)

    @pytest.mark.parametrize("d,alpha", [(2, 1.2), (2, 1.5), (2, 1.8),
                                         (3, 1.2), (3, 1.5), (3, 1.8)])
    def test_against_legendre_reference(self, d, alpha):
        p = StableParams(d, alpha)
        for r in (1e-4, 0.3, 0.62, 0.9, 0.998, 1.002, 1.1, 1.6, 2.1, 30.0, 1e6):
            ref = mp_phi(d, alpha, r)
            assert phi(p, r) == pytest.approx(ref, rel=5e-12)

    def test_huge_radii_against_legendre_reference(self):
        # beyond r ~ 1.34e154, r^2 - 1 overflows; the reference needs
        # about 2 log10(r) extra digits to resolve |r^2 - 1| against 1;
        # near alpha = d, 1 - phi is visibly below 1 even out there
        for p in (P2, StableParams(2, 1.99)):
            for r in (1e154, 1e160, 1e300):
                ref = mp_phi(2, p.alpha, r, dps=int(2 * math.log10(r)) + 40)
                assert ref > 0.0
                assert phi(p, r) == pytest.approx(ref, rel=1e-12)
                assert phi_complement(p, r) == 1.0 - phi(p, r)

    def test_boundary_limits_canonical(self):
        # d = 2, alpha = 1.5: within 1e-3 of 1 near the sphere, small far out
        assert phi(P2, 1.0 - 1e-8) > 0.999
        assert phi(P2, 1.0 + 1e-8) > 0.999
        assert phi(P2, 1e6) < 1e-2

    def test_dual_path_overlap_band(self):
        for d in (2, 3):
            for alpha in (1.2, 1.5, 1.8):
                p = StableParams(d, alpha)
                for dr in (1e-3, 1.4e-3, 2e-3):
                    for sgn in (1.0, -1.0):
                        r = 1.0 + sgn * dr
                        delta = (r - 1.0) * (r + 1.0)
                        series = phi_complement_delta(p, delta)
                        direct = 1.0 - mp_phi(d, alpha, r)
                        assert series == pytest.approx(direct, rel=1e-8)

    def test_complement_positive_and_monotone_near_sphere(self):
        prev_in = prev_out = None
        for k in range(3, 10):
            ci = phi_complement(P2, 1.0 - 10.0 ** -k)
            co = phi_complement(P2, 1.0 + 10.0 ** -k)
            assert ci > 0.0 and co > 0.0
            if prev_in is not None:
                assert ci < prev_in and co < prev_out
            prev_in, prev_out = ci, co

    def test_radial_invariance(self):
        # the implementation is radial; rotations only perturb |x| at ulp level
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.standard_normal(3)
            x *= 1.7 / np.linalg.norm(x)
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            a = hitting_probability(P3, x)
            b = hitting_probability(P3, q @ x)
            assert a == pytest.approx(b, rel=5e-14)

    def test_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            r = rng.uniform(0.0, 5.0)
            if r == 1.0:
                continue
            v = phi(P2, r)
            assert 0.0 <= v <= 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            phi(P2, -0.5)
        with pytest.raises(DomainError):
            phi(StableParams(2, 0.7), 0.5)


class TestPoissonKernel:
    def test_center_is_constant(self):
        kc = constants(P2)
        for ang in (0.0, 1.0, 2.5):
            z = np.array([math.cos(ang), math.sin(ang)])
            assert poisson_kernel(P2, np.zeros(2), z) == pytest.approx(
                kc.phi_at_origin, rel=1e-15)

    def test_exchange_symmetry(self):
        rng = np.random.default_rng(2)
        for r in (0.3, 2.5):
            for _ in range(10):
                y = rng.standard_normal(3)
                y /= np.linalg.norm(y)
                z = rng.standard_normal(3)
                z /= np.linalg.norm(z)
                assert poisson_kernel(P3, r * y, z) == pytest.approx(
                    poisson_kernel(P3, r * z, y), rel=1e-13)

    def test_integrates_to_phi(self):
        from stablepot.analysis import sphere_quadrature
        rng = np.random.default_rng(3)
        for p, res in ((P2, 512), (P3, 64)):
            grid = sphere_quadrature(p, res)
            for _ in range(5):
                x = rng.uniform(-0.6, 0.6, p.d)
                mass = grid.integrate(poisson_kernel(p, x, grid.nodes))
                assert mass == pytest.approx(hitting_probability(p, x), abs=1e-6)

    def test_errors(self):
        # x = z forces |x| = 1, so the sphere-membership guard fires; a
        # boundary argument off the sphere is rejected independently
        with pytest.raises(DomainError):
            poisson_kernel(P2, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        with pytest.raises(DomainError):
            poisson_kernel(P2, np.array([0.5, 0.0]), np.array([0.5, 0.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_input_is_refused(self, bad):
        # broadcasting skips as_point, so the check is explicit; the old
        # kernel returned nan for both (with a RuntimeWarning for inf)
        with pytest.raises(DomainError):
            poisson_kernel(P2, [0.0, bad], [0.0, 1.0])
        with pytest.raises(DomainError):
            poisson_kernel(P2, [0.0, 0.5], [bad, 1.0])

    def test_far_points_scale_exactly(self):
        # |x|^2 - 1 and |x - z|^2 overflow beyond |x| ~ 1e154; far out the
        # kernel is Phi(0) |x|^(alpha - d) up to a relative O(1/|x|)
        z = np.array([0.6, 0.8])
        x = np.array([-3.0, 7.0])
        for k in (100, 250, 500):
            want = constants(P2).phi_at_origin * (4.0 ** k * 58.0 ** 0.5) ** (P2.alpha - P2.d)
            assert poisson_kernel(P2, 4.0 ** k * x, z) == pytest.approx(want, rel=1e-13)
        both = poisson_kernel(P2, np.array([[0.0, 1e300], [0.0, 0.5]]), z)
        assert both[1] == poisson_kernel(P2, np.array([0.0, 0.5]), z)


class TestGreenFunction:
    def test_symmetry(self):
        rng = np.random.default_rng(4)
        done = 0
        while done < 50:
            x = rng.uniform(-2, 2, 2)
            y = rng.uniform(-2, 2, 2)
            if abs(np.linalg.norm(x) - 1) < 0.02 or abs(np.linalg.norm(y) - 1) < 0.02:
                continue
            if np.linalg.norm(x - y) < 0.02:
                continue
            done += 1
            g1 = green_function(P2, x, y)
            g2 = green_function(P2, y, x)
            assert g1 == pytest.approx(g2, rel=1e-12)
            assert g1 >= 0.0

    def test_vanishes_at_sphere(self):
        x = np.array([0.4, 0.0])
        for sgn in (1.0, -1.0):
            prev = None
            for k in range(2, 7):
                y = np.array([0.0, 1.0 + sgn * 10.0 ** -k])
                g = green_function(P2, x, y)
                if prev is not None:
                    assert g < prev
                prev = g
            assert prev < 1e-3

    def test_far_field(self):
        kc = constants(P2)
        y = np.array([1e3, 0.0])
        want = kc.a_d_alpha * 1e3 ** (P2.alpha - P2.d) * (1.0 - kc.phi_at_origin)
        assert green_function(P2, np.zeros(2), y) == pytest.approx(want, rel=1e-5)

    def test_far_point_does_not_overflow(self):
        want = constants(P2).a_d_alpha * 1e200 ** (P2.alpha - P2.d) \
            * phi_complement(P2, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = green_function(P2, [0.0, 0.5], [0.0, 1e200])
        assert math.isfinite(got)
        assert got == pytest.approx(want, rel=1e-12)

    def test_far_points_far_apart(self):
        # delta_w ~ 1e400 overflows; 1 - Phi is taken at r_w = |x||y|/|x - y|,
        # where Phi is its far-field form Phi(0) r^(alpha - d)
        p = StableParams(2, 1.99)
        kc = constants(p)
        want = kc.a_d_alpha * (math.sqrt(2.0) * 1e200) ** (p.alpha - p.d) \
            * (1.0 - kc.phi_at_origin * (1e200 / math.sqrt(2.0)) ** (p.alpha - p.d))
        got = green_function(p, [0.0, 1e200], [1e200, 0.0])
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(0.1571949424746409, rel=1e-12)

    def test_near_coincident_points_inside(self):
        # dx = dy = -0.75 and dist2 = 2.5e-307 overflow delta_w; 1 - Phi is 1 there
        want = constants(P2).a_d_alpha * 5e-154 ** (P2.alpha - P2.d)
        got = green_function(P2, [0.0, 0.5], [5e-154, 0.5])
        assert got == pytest.approx(want, rel=1e-12)

    def test_subnormal_squared_distance(self):
        # |x - y|^2 = 1e-320 is subnormal; the distance power once came out
        # 2.8e-6 off.  Phi at r_w ~ 1e160 is below 1e-80, so 1 - Phi is 1
        for p in (P2, StableParams(3, 1.2)):
            x = np.zeros(p.d)
            x[-1] = 0.5
            y = x.copy()
            y[0] = 1e-160
            with mpmath.workdps(30):
                want = float(constants(p).a_d_alpha
                             * mpmath.mpf(1e-160) ** (p.alpha - p.d))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = green_function(p, x, y)
            assert got == pytest.approx(want, rel=1e-13)
        with pytest.raises(SingularityError, match="float range"):
            green_function(StableParams(3, 1.2), [0.0, 0.0, 0.5], [1e-300, 0.0, 0.5])

    def test_errors(self):
        with pytest.raises(SingularityError):
            green_function(P2, [0.5, 0.0], [0.5, 0.0])
        with pytest.raises(DomainError):
            green_function(P2, [1.0, 0.0], [0.5, 0.0])


class TestMartinKernel:
    def test_normalization_at_origin(self):
        z = np.array([0.0, 1.0])
        assert martin_kernel(P2, np.zeros(2), z) == 1.0
        assert martin_kernel(P2, np.zeros(2), INFINITY) == 1.0

    def test_ratio_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            x = rng.uniform(-1.5, 1.5, 2)
            if abs(np.linalg.norm(x) - 1) < 0.05:
                continue
            z = rng.standard_normal(2)
            z /= np.linalg.norm(z)
            want = poisson_kernel(P2, x, z) / poisson_kernel(P2, np.zeros(2), z)
            assert martin_kernel(P2, x, z) == pytest.approx(want, rel=1e-12)

    def test_green_ratio_limit(self):
        x = np.array([0.4, 0.1])
        z = np.array([0.0, 1.0])
        target = martin_kernel(P2, x, z)
        errs = []
        for k in range(2, 6):
            r = 1.0 - 10.0 ** -k
            ratio = green_function(P2, x, r * z) / green_function(P2, np.zeros(2), r * z)
            errs.append(abs(ratio - target))
        assert errs[2] < 1e-2          # r = 1 - 1e-4
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_infinity_branch(self):
        kc = constants(P2)
        x = np.array([0.3, 0.4])
        want = phi_complement(P2, 0.5) / (1.0 - kc.phi_at_origin)
        assert martin_kernel(P2, x, INFINITY) == pytest.approx(want, rel=1e-13)


class TestBallPoisson:
    def test_isotropy_at_center(self):
        y1 = np.array([1.8, 0.0])
        y2 = np.array([0.0, -1.8])
        v1 = ball_poisson_kernel(P2, np.zeros(2), 1.0, np.zeros(2), y1)
        v2 = ball_poisson_kernel(P2, np.zeros(2), 1.0, np.zeros(2), y2)
        assert v1 == v2

    def test_accepts_full_alpha_range(self):
        p = StableParams(2, 0.7)   # below the hitting range on purpose
        v = ball_poisson_kernel(p, np.zeros(2), 1.0, np.zeros(2), np.array([2.0, 0.0]))
        assert v > 0.0

    def test_normalization(self):
        for p in (StableParams(2, 0.7), P2, StableParams(3, 1.8)):
            d, a = p.d, p.alpha
            area = 2.0 * math.pi ** (d / 2) / math.gamma(d / 2)
            val, _ = integrate.quad(
                lambda w: 0.5 * ball_constant(p) * area * w ** (a / 2 - 1)
                * (1 - w) ** (-a / 2), 0.0, 1.0, points=[0.0, 1.0], limit=200)
            assert val == pytest.approx(1.0, abs=1e-6)

    def test_scaling(self):
        lam = 4.0
        x = np.array([0.2, -0.1])
        y = np.array([1.4, 1.2])
        lhs = ball_poisson_kernel(P2, np.zeros(2), lam, lam * x, lam * y)
        rhs = lam ** -2 * ball_poisson_kernel(P2, np.zeros(2), 1.0, x, y)
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_off_center_normalization(self):
        # the exit density integrates to 1 from any interior start, not
        # just the center; inner integral in w = 1/rho^2 per direction
        x = np.array([0.3, -0.2])
        x2 = float(np.dot(x, x))

        def per_angle(theta):
            direction = np.array([math.cos(theta), math.sin(theta)])

            def inner(w):
                rho = 1.0 / math.sqrt(w)
                y = rho * direction
                val = ball_poisson_kernel(P2, np.zeros(2), 1.0, x, y)
                return val * rho ** 4 / 2.0      # rho drho = (rho^4/2) dw

            v, _ = integrate.quad(inner, 0.0, 1.0, points=[0.0, 1.0], limit=200)
            return v

        total, _ = integrate.quad(per_angle, 0.0, 2.0 * math.pi, limit=100)
        assert total == pytest.approx(1.0, abs=2e-6)
        assert x2 < 1.0   # start really is interior

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ball_poisson_kernel(P2, np.zeros(2), 1.0, np.array([1.2, 0.0]),
                                np.array([2.0, 0.0]))
        with pytest.raises(DomainError):
            ball_poisson_kernel(P2, np.zeros(2), 1.0, np.zeros(2),
                                np.array([0.5, 0.0]))


class TestHigherDimensions:
    # the closed forms hold for every integer d >= 2 even though the
    # boundary quadratures stop at d = 3

    def test_phi_d4_against_reference(self):
        p = StableParams(4, 1.5)
        for r in (0.3, 0.9, 1.2, 5.0):
            assert phi(p, r) == pytest.approx(mp_phi(4, 1.5, r), rel=5e-12)

    def test_kelvin_route_d4(self):
        from stablepot import halfspace
        p = StableParams(4, 1.4)
        rng = np.random.default_rng(21)
        e4 = np.zeros(4)
        e4[-1] = 1.0
        done = 0
        while done < 20:
            x = rng.uniform(-2, 2, 4)
            y = rng.uniform(-2, 2, 4)
            if abs(x[-1]) < 0.1 or abs(y[-1]) < 0.1 or np.linalg.norm(x - y) < 0.1:
                continue
            if np.linalg.norm(x + e4) < 0.3 or np.linalg.norm(y + e4) < 0.3:
                continue
            done += 1
            lhs = halfspace.green_function(p, x, y)
            pref = 2.0 ** (4 - p.alpha) \
                * np.linalg.norm(x + e4) ** (p.alpha - 4) \
                * np.linalg.norm(y + e4) ** (p.alpha - 4)
            rhs = pref * green_function(p, halfspace.invert_t_tilde(x),
                                        halfspace.invert_t_tilde(y))
            assert lhs == pytest.approx(rhs, rel=1e-10)
